package workload

import (
	"fmt"
	"math"

	"repro/internal/content"
	"repro/internal/sim"
)

// FlashCrowdSpec generates a steady background of content writes plus a
// step read burst on a single hot object — the "everyone opens the same
// video at once" pattern that stresses read replica selection (section
// VIII-C): during the burst every client hammers one content, so the
// replica with the best up-link rate changes continuously and a random
// selector piles the crowd onto one server.
//
// The hot object is written at t = 0 so it exists (and, with replication
// enabled, has a second copy) before the crowd arrives.
type FlashCrowdSpec struct {
	// BackgroundRate is the Poisson rate of background writes per second.
	BackgroundRate float64
	// Clients is the client population.
	Clients int
	// MeanSizeBytes / SigmaLog / CapBytes parameterise log-normal
	// background content sizes.
	MeanSizeBytes float64
	SigmaLog      float64
	CapBytes      int64
	// HotSizeBytes is the size of the hot object.
	HotSizeBytes int64
	// BurstStart / BurstDuration bound the step burst window in seconds
	// from generation start.
	BurstStart    float64
	BurstDuration float64
	// BurstRate is the Poisson rate of hot-object reads per second inside
	// the window (the step height).
	BurstRate float64
}

// DefaultFlashCrowdSpec puts a 10 s, 100 reads/sec crowd in the middle of
// the quick-scale 30 s horizon over a light write background.
func DefaultFlashCrowdSpec() FlashCrowdSpec {
	return FlashCrowdSpec{
		BackgroundRate: 10,
		Clients:        40,
		MeanSizeBytes:  1e6,
		SigmaLog:       1.0,
		CapBytes:       30 << 20,
		HotSizeBytes:   4 << 20,
		BurstStart:     10,
		BurstDuration:  10,
		BurstRate:      100,
	}
}

// Validate checks the spec parameters, returning a descriptive error for
// the first invalid field.
func (f FlashCrowdSpec) Validate() error {
	switch {
	case f.BackgroundRate < 0:
		return fmt.Errorf("workload: flashcrowd BackgroundRate = %v", f.BackgroundRate)
	case f.Clients <= 0:
		return fmt.Errorf("workload: flashcrowd Clients = %d", f.Clients)
	case f.MeanSizeBytes <= 0 || f.SigmaLog <= 0 || f.CapBytes <= 0:
		return fmt.Errorf("workload: flashcrowd size params invalid")
	case f.HotSizeBytes <= 0:
		return fmt.Errorf("workload: flashcrowd HotSizeBytes = %d", f.HotSizeBytes)
	case f.BurstStart < 0:
		return fmt.Errorf("workload: flashcrowd BurstStart = %v", f.BurstStart)
	case f.BurstDuration <= 0:
		return fmt.Errorf("workload: flashcrowd BurstDuration = %v", f.BurstDuration)
	case f.BurstRate <= 0:
		return fmt.Errorf("workload: flashcrowd BurstRate = %v", f.BurstRate)
	}
	return nil
}

func (f FlashCrowdSpec) clientPopulation() int { return f.Clients }

// HotContent is the ID of the flash crowd's hot object.
const HotContent = content.ID("flash-hot")

// Generate implements Generator.
func (f FlashCrowdSpec) Generate(rng *sim.RNG, duration float64) []Request {
	if err := f.Validate(); err != nil {
		panic(err)
	}
	var reqs []Request
	// the hot object goes in first, declared interactive so a
	// class-aware system places it on a well-connected server
	reqs = append(reqs, Request{
		At: 0, Client: rng.Intn(f.Clients), Content: HotContent,
		Size: f.HotSizeBytes, Op: Write, Class: content.Interactive,
	})
	// background writes
	mu := math.Log(f.MeanSizeBytes) - f.SigmaLog*f.SigmaLog/2
	if f.BackgroundRate > 0 {
		now, seq := 0.0, 0
		for {
			now += rng.Exp(f.BackgroundRate)
			if now >= duration {
				break
			}
			seq++
			size := int64(rng.LogNormal(mu, f.SigmaLog))
			if size < 1 {
				size = 1
			}
			if size > f.CapBytes {
				size = f.CapBytes
			}
			reqs = append(reqs, Request{
				At: now, Client: rng.Intn(f.Clients),
				Content: content.ID(fmt.Sprintf("flash-bg-%d", seq)),
				Size:    size, Op: Write, Class: content.Unknown,
			})
		}
	}
	// the step burst: Poisson reads of the hot object inside the window
	end := f.BurstStart + f.BurstDuration
	if end > duration {
		end = duration
	}
	now := f.BurstStart
	for {
		now += rng.Exp(f.BurstRate)
		if now >= end {
			break
		}
		reqs = append(reqs, Request{
			At: now, Client: rng.Intn(f.Clients), Content: HotContent, Op: Read,
		})
	}
	sortRequests(reqs)
	return reqs
}
