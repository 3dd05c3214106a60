package workload

import (
	"fmt"
	"math"

	"repro/internal/content"
	"repro/internal/sim"
)

// ZipfChurnSpec generates reads over a growing catalog with Zipf popularity
// and popularity churn: contents are written at a steady rate, reads draw a
// Zipf rank over the current catalog, and every ChurnInterval a uniformly
// chosen content is promoted to rank 0 (the head), demoting everything it
// passes. The head of the popularity order therefore turns over during the
// run — the property that defeats static placement and makes the learned
// content classes of section II-B (and cold-content migration, VII-C) earn
// their keep: yesterday's hot content must decay to Passive as today's
// takes its place.
type ZipfChurnSpec struct {
	// Catalog is the number of contents written up front, spread uniformly
	// over WarmupFraction of the horizon.
	Catalog int
	// WarmupFraction of the horizon carries the initial catalog writes.
	WarmupFraction float64
	// WriteRate adds new contents per second after warmup (0 = static
	// catalog).
	WriteRate float64
	// ReadRate is Poisson reads per second (reads start after the first
	// write exists).
	ReadRate float64
	// ZipfS is the popularity skew (> 1).
	ZipfS float64
	// ChurnInterval promotes a random content to rank 0 every that many
	// seconds (0 = no churn, a frozen popularity order).
	ChurnInterval float64
	// Clients is the client population.
	Clients int
	// MeanSizeBytes / SigmaLog / CapBytes parameterise log-normal sizes.
	MeanSizeBytes float64
	SigmaLog      float64
	CapBytes      int64
}

// DefaultZipfChurnSpec serves a 50-content catalog at 60 reads/sec with a
// head turnover every 3 s.
func DefaultZipfChurnSpec() ZipfChurnSpec {
	return ZipfChurnSpec{
		Catalog:        50,
		WarmupFraction: 0.2,
		WriteRate:      2,
		ReadRate:       60,
		ZipfS:          1.3,
		ChurnInterval:  3,
		Clients:        40,
		MeanSizeBytes:  2e6,
		SigmaLog:       1.0,
		CapBytes:       30 << 20,
	}
}

// Validate checks the spec parameters, returning a descriptive error for
// the first invalid field.
func (z ZipfChurnSpec) Validate() error {
	switch {
	case z.Catalog <= 0:
		return fmt.Errorf("workload: zipfchurn Catalog = %d", z.Catalog)
	case z.WarmupFraction <= 0 || z.WarmupFraction > 1:
		return fmt.Errorf("workload: zipfchurn WarmupFraction = %v, need (0, 1]", z.WarmupFraction)
	case z.WriteRate < 0:
		return fmt.Errorf("workload: zipfchurn WriteRate = %v", z.WriteRate)
	case z.ReadRate <= 0:
		return fmt.Errorf("workload: zipfchurn ReadRate = %v", z.ReadRate)
	case z.ZipfS <= 1:
		return fmt.Errorf("workload: zipfchurn ZipfS = %v, need > 1", z.ZipfS)
	case z.ChurnInterval < 0:
		return fmt.Errorf("workload: zipfchurn ChurnInterval = %v", z.ChurnInterval)
	case z.Clients <= 0:
		return fmt.Errorf("workload: zipfchurn Clients = %d", z.Clients)
	case z.MeanSizeBytes <= 0 || z.SigmaLog <= 0 || z.CapBytes <= 0:
		return fmt.Errorf("workload: zipfchurn size params invalid")
	}
	return nil
}

func (z ZipfChurnSpec) clientPopulation() int { return z.Clients }

// Generate implements Generator.
func (z ZipfChurnSpec) Generate(rng *sim.RNG, duration float64) []Request {
	if err := z.Validate(); err != nil {
		panic(err)
	}
	mu := math.Log(z.MeanSizeBytes) - z.SigmaLog*z.SigmaLog/2
	var reqs []Request
	seq := 0
	newContent := func(at float64) content.ID {
		seq++
		id := content.ID(fmt.Sprintf("zipf-%d", seq))
		size := int64(rng.LogNormal(mu, z.SigmaLog))
		if size < 1 {
			size = 1
		}
		if size > z.CapBytes {
			size = z.CapBytes
		}
		reqs = append(reqs, Request{
			At: at, Client: rng.Intn(z.Clients), Content: id,
			Size: size, Op: Write, Class: content.Unknown,
		})
		return id
	}

	// event-merge loop over four deterministic streams: catalog writes at
	// fixed warmup offsets, churn promotions at fixed intervals, Poisson
	// churn writes, Poisson reads. ranked[0] is the current head.
	warmEnd := duration * z.WarmupFraction
	warmStep := warmEnd / float64(z.Catalog)
	var ranked []content.ID
	nextCatalog, catalogLeft := 0.0, z.Catalog
	nextChurn := math.Inf(1)
	if z.ChurnInterval > 0 {
		nextChurn = z.ChurnInterval
	}
	nextWrite := math.Inf(1)
	if z.WriteRate > 0 {
		nextWrite = warmEnd + rng.Exp(z.WriteRate)
	}
	nextRead := rng.Exp(z.ReadRate)
	for {
		now := math.Min(math.Min(nextCatalog, nextChurn), math.Min(nextWrite, nextRead))
		if now >= duration {
			break
		}
		switch now {
		case nextCatalog:
			ranked = append(ranked, newContent(now))
			catalogLeft--
			if catalogLeft > 0 {
				nextCatalog += warmStep
			} else {
				nextCatalog = math.Inf(1)
			}
		case nextChurn:
			if len(ranked) > 1 {
				i := rng.Intn(len(ranked))
				promoted := ranked[i]
				copy(ranked[1:i+1], ranked[:i])
				ranked[0] = promoted
			}
			nextChurn += z.ChurnInterval
		case nextWrite:
			// fresh content debuts mid-pack, not at the head: it must be
			// promoted by churn to become hot
			id := newContent(now)
			ranked = append(ranked, id)
			nextWrite += rng.Exp(z.WriteRate)
		default: // nextRead
			if len(ranked) > 0 {
				reqs = append(reqs, Request{
					At: now, Client: rng.Intn(z.Clients),
					Content: ranked[zipfRank(rng, len(ranked), z.ZipfS)], Op: Read,
				})
			}
			nextRead = now + rng.Exp(z.ReadRate)
		}
	}
	sortRequests(reqs)
	return reqs
}
