package workload

import (
	"fmt"
	"math"

	"repro/internal/content"
	"repro/internal/sim"
)

// DiurnalSpec generates writes (and optional follow-up reads) whose arrival
// rate follows a sinusoidal day/night cycle:
//
//	rate(t) = BaseRate · (1 + Amplitude · sin(2π·(t/Period + Phase)))
//
// Sampling uses Lewis-Shedler thinning of a homogeneous Poisson process at
// the peak rate, so the output is an exact inhomogeneous Poisson draw and
// fully deterministic given the RNG. Periods are simulation-scale (tens of
// seconds) rather than literal days: what the experiments exercise is the
// allocation plane tracking a smoothly varying load, not wall-clock time.
type DiurnalSpec struct {
	// BaseRate is the mean arrival rate in requests/sec.
	BaseRate float64
	// Amplitude in [0, 1) scales the swing: peak = Base·(1+A), trough =
	// Base·(1−A).
	Amplitude float64
	// Period is the cycle length in seconds.
	Period float64
	// Phase shifts the cycle as a fraction of Period in [0, 1); the default
	// 0.75 starts the horizon near the trough so a full run shows ramp-up,
	// peak, and decay.
	Phase float64
	// Clients is the client population.
	Clients int
	// MeanSizeBytes / SigmaLog parameterise log-normal content sizes,
	// capped at CapBytes.
	MeanSizeBytes float64
	SigmaLog      float64
	CapBytes      int64
	// ReadFraction of arrivals are reads of an already-written content
	// (Zipf-popular by recency rank with skew ZipfS); the rest are writes.
	// Reads before the first write are re-drawn as writes.
	ReadFraction float64
	// ZipfS is the read-popularity skew (> 1).
	ZipfS float64
}

// DefaultDiurnalSpec returns a cycle sized for the quick-scale horizon:
// one full period in 30 s with a 2.3:1 peak-to-trough swing.
func DefaultDiurnalSpec() DiurnalSpec {
	return DiurnalSpec{
		BaseRate:      40,
		Amplitude:     0.8,
		Period:        30,
		Phase:         0.75,
		Clients:       40,
		MeanSizeBytes: 1e6,
		SigmaLog:      1.0,
		CapBytes:      30 << 20,
		ReadFraction:  0.5,
		ZipfS:         1.2,
	}
}

// Validate checks the spec parameters, returning a descriptive error for
// the first invalid field.
func (d DiurnalSpec) Validate() error {
	switch {
	case d.BaseRate <= 0:
		return fmt.Errorf("workload: diurnal BaseRate = %v", d.BaseRate)
	case d.Amplitude < 0 || d.Amplitude >= 1:
		return fmt.Errorf("workload: diurnal Amplitude = %v, need [0, 1)", d.Amplitude)
	case d.Period <= 0:
		return fmt.Errorf("workload: diurnal Period = %v", d.Period)
	case d.Phase < 0 || d.Phase >= 1:
		return fmt.Errorf("workload: diurnal Phase = %v, need [0, 1)", d.Phase)
	case d.Clients <= 0:
		return fmt.Errorf("workload: diurnal Clients = %d", d.Clients)
	case d.MeanSizeBytes <= 0 || d.SigmaLog <= 0 || d.CapBytes <= 0:
		return fmt.Errorf("workload: diurnal size params invalid")
	case d.ReadFraction < 0 || d.ReadFraction > 1:
		return fmt.Errorf("workload: diurnal ReadFraction = %v", d.ReadFraction)
	case d.ReadFraction > 0 && d.ZipfS <= 1:
		return fmt.Errorf("workload: diurnal ZipfS = %v, need > 1 with reads on", d.ZipfS)
	}
	return nil
}

func (d DiurnalSpec) clientPopulation() int { return d.Clients }

// Rate returns the instantaneous arrival rate at time t.
func (d DiurnalSpec) Rate(t float64) float64 {
	return d.BaseRate * (1 + d.Amplitude*math.Sin(2*math.Pi*(t/d.Period+d.Phase)))
}

// Generate implements Generator.
func (d DiurnalSpec) Generate(rng *sim.RNG, duration float64) []Request {
	if err := d.Validate(); err != nil {
		panic(err)
	}
	mu := math.Log(d.MeanSizeBytes) - d.SigmaLog*d.SigmaLog/2
	peak := d.BaseRate * (1 + d.Amplitude)
	var reqs []Request
	var written []content.ID
	now := 0.0
	seq := 0
	for {
		// thinning: candidate points at the peak rate, accepted with
		// probability rate(t)/peak
		now += rng.Exp(peak)
		if now >= duration {
			break
		}
		if rng.Float64() >= d.Rate(now)/peak {
			continue
		}
		client := rng.Intn(d.Clients)
		if d.ReadFraction > 0 && len(written) > 0 && rng.Float64() < d.ReadFraction {
			// reads favour recent content: rank 0 = newest write
			rank := zipfRank(rng, len(written), d.ZipfS)
			reqs = append(reqs, Request{
				At: now, Client: client,
				Content: written[len(written)-1-rank], Op: Read,
			})
			continue
		}
		seq++
		id := content.ID(fmt.Sprintf("diurnal-%d", seq))
		size := int64(rng.LogNormal(mu, d.SigmaLog))
		if size < 1 {
			size = 1
		}
		if size > d.CapBytes {
			size = d.CapBytes
		}
		reqs = append(reqs, Request{
			At: now, Client: client, Content: id, Size: size,
			Op: Write, Class: content.Unknown,
		})
		written = append(written, id)
	}
	sortRequests(reqs)
	return reqs
}
