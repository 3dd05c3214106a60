package workload

import (
	"fmt"
	"math"

	"repro/internal/content"
	"repro/internal/sim"
)

// MixedSpec generates a write+read workload: contents are uploaded over
// time and then retrieved with Zipf-distributed popularity — the
// write-once read-many pattern of the paper's content model (section
// II-B), where a few hot contents draw most reads while "about 60% of
// content was not accessed at all". It exercises the full SCDA serving
// path: external writes (VIII-A), internal replication (VIII-B) and
// replica-selected reads (VIII-C).
type MixedSpec struct {
	// WriteRate is content uploads per second.
	WriteRate float64
	// ReadsPerWrite is the mean number of reads issued per upload
	// (spread over the remaining horizon).
	ReadsPerWrite float64
	// ZipfS is the popularity skew (≥ 1.01; higher = hotter head).
	ZipfS float64
	// Clients is the client population.
	Clients int
	// MeanSizeBytes / SigmaLog parameterise log-normal content sizes.
	MeanSizeBytes float64
	SigmaLog      float64
	// CapBytes caps content size.
	CapBytes int64
	// DeclareClasses assigns content classes by popularity rank: the
	// hottest decile is declared Interactive, the next SemiInteractive,
	// the rest Passive (when false, classes stay Unknown so the cluster
	// learns them).
	DeclareClasses bool
}

// DefaultMixedSpec returns a CDN-ish read-heavy mix.
func DefaultMixedSpec() MixedSpec {
	return MixedSpec{
		WriteRate:      5,
		ReadsPerWrite:  4,
		ZipfS:          1.2,
		Clients:        40,
		MeanSizeBytes:  2e6,
		SigmaLog:       1.0,
		CapBytes:       30 << 20,
		DeclareClasses: true,
	}
}

// Validate checks the spec parameters, returning a descriptive error for
// the first invalid field.
func (m MixedSpec) Validate() error {
	switch {
	case m.WriteRate <= 0 || m.Clients <= 0:
		return fmt.Errorf("workload: mixed rate/clients invalid")
	case m.ReadsPerWrite < 0:
		return fmt.Errorf("workload: ReadsPerWrite = %v", m.ReadsPerWrite)
	case m.ZipfS <= 1:
		return fmt.Errorf("workload: ZipfS = %v, need > 1", m.ZipfS)
	case m.MeanSizeBytes <= 0 || m.SigmaLog <= 0 || m.CapBytes <= 0:
		return fmt.Errorf("workload: mixed size params invalid")
	}
	return nil
}

func (m MixedSpec) clientPopulation() int { return m.Clients }

// zipfRank draws a rank in [0, n) with P(r) ∝ 1/(r+1)^s via inversion on
// the truncated harmonic weights.
func zipfRank(rng *sim.RNG, n int, s float64) int {
	if n <= 1 {
		return 0
	}
	// cheap inversion: walk the CDF; n stays small per call because
	// popularity is sampled over already-written contents
	total := 0.0
	for r := 0; r < n; r++ {
		total += 1 / math.Pow(float64(r+1), s)
	}
	u := rng.Float64() * total
	acc := 0.0
	for r := 0; r < n; r++ {
		acc += 1 / math.Pow(float64(r+1), s)
		if u <= acc {
			return r
		}
	}
	return n - 1
}

// Generate implements Generator. Reads always reference contents whose
// write request precedes them in time.
func (m MixedSpec) Generate(rng *sim.RNG, duration float64) []Request {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	mu := math.Log(m.MeanSizeBytes) - m.SigmaLog*m.SigmaLog/2
	var reqs []Request
	var written []content.ID
	now := 0.0
	seq := 0
	for {
		now += rng.Exp(m.WriteRate)
		if now >= duration {
			break
		}
		seq++
		id := content.ID(fmt.Sprintf("mixed-%d", seq))
		size := int64(rng.LogNormal(mu, m.SigmaLog))
		if size < 1 {
			size = 1
		}
		if size > m.CapBytes {
			size = m.CapBytes
		}
		cls := content.Unknown
		if m.DeclareClasses {
			switch {
			case seq%10 == 0:
				cls = content.Interactive
			case seq%10 < 4:
				cls = content.SemiInteractive
			default:
				cls = content.Passive
			}
		}
		reqs = append(reqs, Request{
			At: now, Client: rng.Intn(m.Clients), Content: id,
			Size: size, Op: Write, Class: cls,
		})
		written = append(written, id)
		// schedule Poisson-count reads of Zipf-popular earlier contents
		nReads := int(rng.Exp(1/math.Max(m.ReadsPerWrite, 1e-9)) + 0.5)
		if m.ReadsPerWrite == 0 {
			nReads = 0
		}
		for k := 0; k < nReads; k++ {
			at := now + rng.Float64()*(duration-now)
			target := written[zipfRank(rng, len(written), m.ZipfS)]
			reqs = append(reqs, Request{
				At: at, Client: rng.Intn(m.Clients), Content: target, Op: Read,
			})
		}
	}
	sortRequests(reqs)
	return reqs
}
