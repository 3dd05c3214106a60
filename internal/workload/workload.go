// Package workload generates the three traffic mixes of the paper's
// evaluation (section X):
//
//  1. Video traces (X-A1): YouTube-style traffic — HTTP control flows
//     under 5 KB exchanged before each video, and video flows with a
//     heavy-tailed size distribution capped near 30 MB ("there is a
//     maximum size limit of about 30MB for most YouTube video files"),
//     with Poisson arrivals scaled to 20 servers.
//  2. General datacenter traces (X-A2): the Benson et al. IMC'10 shape —
//     most flows a few KB, an elephant tail up to ~7 MB (the fig. 13
//     x-axis), log-normal inter-arrivals.
//  3. Pareto/Poisson (X-B): Pareto file sizes with mean 500 KB and shape
//     1.6, Poisson arrivals at 200 flows/sec.
//
// The original traces ([28], [22], [12], [3]) are not redistributable;
// these synthetic generators reproduce the published shape statistics the
// figures depend on (size mix, tail caps, arrival process). Generators are
// deterministic given a seed.
package workload

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/content"
	"repro/internal/sim"
)

// Op distinguishes content writes (uploads) from reads (retrievals).
type Op int

const (
	// Write uploads content into the cloud (the paper's figures measure
	// "content upload time").
	Write Op = iota
	// Read retrieves previously written content.
	Read
)

// String names the operation for traces and logs.
func (o Op) String() string {
	if o == Write {
		return "write"
	}
	return "read"
}

// Request is one client operation against the cloud.
type Request struct {
	// At is the arrival time in seconds from experiment start.
	At float64
	// Client indexes into the experiment's client list.
	Client int
	// Content identifies the content being written or read.
	Content content.ID
	// Size in bytes (for writes; reads use the stored size).
	Size int64
	// Op is write or read.
	Op Op
	// Class is the declared content class (Unknown lets the cluster
	// learn it).
	Class content.Class
}

// Generator produces a time-ordered request sequence.
type Generator interface {
	// Generate returns all requests with At < duration, sorted by At.
	Generate(rng *sim.RNG, duration float64) []Request
}

// ClientPopulation returns the Clients parameter of a registered
// generator: every request it produces has Client in [0, n). It reports
// false for a generator without one, such as a Program, whose phases each
// have their own.
func ClientPopulation(g Generator) (n int, ok bool) {
	p, ok := g.(interface{ clientPopulation() int })
	if !ok {
		return 0, false
	}
	return p.clientPopulation(), true
}

// VideoSpec parameterises the YouTube-trace-shaped workload.
type VideoSpec struct {
	// ArrivalRate is video flows per second across all clients (the
	// paper scales trace arrival rates to 20 of 2138 YouTube servers).
	ArrivalRate float64
	// Clients is the number of distinct requesting clients.
	Clients int
	// ControlFlows includes the <5 KB HTTP control flows exchanged
	// "between the Flash Plugin and a content server before a video flow
	// starts" (figs. 7-9 include them; figs. 10-12 exclude them).
	ControlFlows bool
	// ControlPerVideo is the mean number of control flows per video.
	ControlPerVideo float64
	// MeanSizeBytes is the mean video size; sizes are log-normal with
	// this mean, capped at CapBytes.
	MeanSizeBytes float64
	// SigmaLog is the log-normal shape (spread) parameter.
	SigmaLog float64
	// CapBytes is the maximum video size (the paper's ~30 MB YouTube cap).
	CapBytes int64
}

// DefaultVideoSpec mirrors the section X-A1 setup.
func DefaultVideoSpec() VideoSpec {
	return VideoSpec{
		ArrivalRate:     30,
		Clients:         40,
		ControlFlows:    true,
		ControlPerVideo: 2,
		MeanSizeBytes:   8e6,
		SigmaLog:        1.0,
		CapBytes:        30 << 20,
	}
}

// Validate checks the spec parameters, returning a descriptive error for
// the first invalid field.
func (v VideoSpec) Validate() error {
	switch {
	case v.ArrivalRate <= 0:
		return fmt.Errorf("workload: video ArrivalRate = %v", v.ArrivalRate)
	case v.Clients <= 0:
		return fmt.Errorf("workload: video Clients = %d", v.Clients)
	case v.MeanSizeBytes <= 0 || v.CapBytes <= 0:
		return fmt.Errorf("workload: video sizes invalid")
	case v.SigmaLog <= 0:
		return fmt.Errorf("workload: video SigmaLog = %v", v.SigmaLog)
	case v.ControlFlows && v.ControlPerVideo <= 0:
		return fmt.Errorf("workload: ControlPerVideo = %v with control flows on", v.ControlPerVideo)
	}
	return nil
}

func (v VideoSpec) clientPopulation() int { return v.Clients }

// ControlFlowMaxBytes is the paper's control/video split: "control flows
// which are less than 5KB and YouTube video flows which are greater than
// or equal to 5KB".
const ControlFlowMaxBytes = 5_000

// Generate implements Generator.
func (v VideoSpec) Generate(rng *sim.RNG, duration float64) []Request {
	if err := v.Validate(); err != nil {
		panic(err)
	}
	// log-normal with the requested mean: mean = exp(mu + sigma²/2)
	mu := math.Log(v.MeanSizeBytes) - v.SigmaLog*v.SigmaLog/2
	var reqs []Request
	now := 0.0
	videoSeq := 0
	for {
		now += rng.Exp(v.ArrivalRate)
		if now >= duration {
			break
		}
		client := rng.Intn(v.Clients)
		videoSeq++
		id := content.ID(fmt.Sprintf("video-%d", videoSeq))
		if v.ControlFlows {
			// geometric-ish count around the mean, at least 1
			n := 1 + int(rng.Exp(1/math.Max(v.ControlPerVideo-1, 1e-9)))
			if v.ControlPerVideo <= 1 {
				n = 1
			}
			for k := 0; k < n; k++ {
				size := int64(200 + rng.Float64()*(ControlFlowMaxBytes-200))
				reqs = append(reqs, Request{
					At:      now,
					Client:  client,
					Content: content.ID(fmt.Sprintf("ctl-%d-%d", videoSeq, k)),
					Size:    size,
					Op:      Write,
					Class:   content.SemiInteractive,
				})
			}
		}
		size := int64(rng.LogNormal(mu, v.SigmaLog))
		if size < ControlFlowMaxBytes {
			size = ControlFlowMaxBytes // videos are ≥ 5 KB by definition
		}
		if size > v.CapBytes {
			size = v.CapBytes // the ~30 MB YouTube cap
		}
		reqs = append(reqs, Request{
			At: now, Client: client, Content: id, Size: size,
			Op: Write, Class: content.SemiInteractive,
		})
	}
	sortRequests(reqs)
	return reqs
}

// DCSpec parameterises the general-datacenter-trace workload (X-A2).
type DCSpec struct {
	// ArrivalRate is flows per second.
	ArrivalRate float64
	// Clients is the number of distinct clients.
	Clients int
	// MiceFraction of flows are small (a few KB); the rest draw from the
	// elephant tail. Benson et al. report ~80% of DC flows under 10 KB.
	MiceFraction float64
	// MiceMeanBytes is the mean mouse size.
	MiceMeanBytes float64
	// ElephantShape / ElephantMinBytes parameterise the Pareto tail.
	ElephantShape    float64
	ElephantMinBytes float64
	// CapBytes caps the tail (fig. 13's axis ends near 7 MB).
	CapBytes int64
	// InterArrivalSigma is the log-normal inter-arrival spread; Benson et
	// al. found DC inter-arrivals log-normal, burstier than Poisson.
	InterArrivalSigma float64
}

// DefaultDCSpec mirrors section X-A2.
func DefaultDCSpec() DCSpec {
	return DCSpec{
		ArrivalRate:       60,
		Clients:           40,
		MiceFraction:      0.8,
		MiceMeanBytes:     4e3,
		ElephantShape:     1.3,
		ElephantMinBytes:  100e3,
		CapBytes:          7 << 20,
		InterArrivalSigma: 1.0,
	}
}

// Validate checks the spec parameters, returning a descriptive error for
// the first invalid field.
func (d DCSpec) Validate() error {
	switch {
	case d.ArrivalRate <= 0:
		return fmt.Errorf("workload: dc ArrivalRate = %v", d.ArrivalRate)
	case d.Clients <= 0:
		return fmt.Errorf("workload: dc Clients = %d", d.Clients)
	case d.MiceFraction < 0 || d.MiceFraction > 1:
		return fmt.Errorf("workload: MiceFraction = %v", d.MiceFraction)
	case d.MiceMeanBytes <= 0 || d.ElephantMinBytes <= 0 || d.ElephantShape <= 0:
		return fmt.Errorf("workload: dc size params invalid")
	case d.CapBytes <= 0 || d.InterArrivalSigma <= 0:
		return fmt.Errorf("workload: dc cap/sigma invalid")
	}
	return nil
}

func (d DCSpec) clientPopulation() int { return d.Clients }

// Generate implements Generator.
func (d DCSpec) Generate(rng *sim.RNG, duration float64) []Request {
	if err := d.Validate(); err != nil {
		panic(err)
	}
	// log-normal inter-arrivals with mean 1/rate: mean = exp(mu+sigma²/2)
	mu := math.Log(1/d.ArrivalRate) - d.InterArrivalSigma*d.InterArrivalSigma/2
	var reqs []Request
	now := 0.0
	seq := 0
	for {
		now += rng.LogNormal(mu, d.InterArrivalSigma)
		if now >= duration {
			break
		}
		seq++
		var size int64
		if rng.Float64() < d.MiceFraction {
			size = int64(rng.Exp(1/d.MiceMeanBytes)) + 100
		} else {
			size = int64(rng.Pareto(d.ElephantMinBytes, d.ElephantShape))
		}
		if size > d.CapBytes {
			size = d.CapBytes
		}
		reqs = append(reqs, Request{
			At:      now,
			Client:  rng.Intn(d.Clients),
			Content: content.ID(fmt.Sprintf("dc-%d", seq)),
			Size:    size,
			Op:      Write,
			Class:   content.Unknown,
		})
	}
	sortRequests(reqs)
	return reqs
}

// ParetoSpec parameterises the distribution-based workload of section X-B:
// "File sizes are Pareto distributed with mean 500KB and shape parameter
// of 1.6. Flow arrival rates are Poisson distributed with mean 200
// flows/sec."
type ParetoSpec struct {
	ArrivalRate   float64
	Clients       int
	MeanSizeBytes float64
	Shape         float64
	// CapBytes bounds the unbounded Pareto tail so a single sample cannot
	// dominate a finite simulation; 0 means uncapped.
	CapBytes int64
}

// DefaultParetoSpec mirrors section X-B.
func DefaultParetoSpec() ParetoSpec {
	return ParetoSpec{ArrivalRate: 200, Clients: 40, MeanSizeBytes: 500e3, Shape: 1.6, CapBytes: 100 << 20}
}

// Validate checks the spec parameters, returning a descriptive error for
// the first invalid field.
func (p ParetoSpec) Validate() error {
	switch {
	case p.ArrivalRate <= 0 || p.Clients <= 0:
		return fmt.Errorf("workload: pareto rate/clients invalid")
	case p.MeanSizeBytes <= 0 || p.Shape <= 1:
		return fmt.Errorf("workload: pareto mean/shape invalid (shape must exceed 1 for a finite mean)")
	}
	return nil
}

func (p ParetoSpec) clientPopulation() int { return p.Clients }

// Generate implements Generator.
func (p ParetoSpec) Generate(rng *sim.RNG, duration float64) []Request {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	xm := p.MeanSizeBytes * (p.Shape - 1) / p.Shape
	var reqs []Request
	now := 0.0
	seq := 0
	for {
		now += rng.Exp(p.ArrivalRate)
		if now >= duration {
			break
		}
		seq++
		size := int64(rng.Pareto(xm, p.Shape))
		if p.CapBytes > 0 && size > p.CapBytes {
			size = p.CapBytes
		}
		reqs = append(reqs, Request{
			At:      now,
			Client:  rng.Intn(p.Clients),
			Content: content.ID(fmt.Sprintf("pp-%d", seq)),
			Size:    size,
			Op:      Write,
			Class:   content.Unknown,
		})
	}
	sortRequests(reqs)
	return reqs
}

func sortRequests(reqs []Request) {
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].At < reqs[j].At })
}

// Stats summarises a request sequence for reporting and validation.
type Stats struct {
	Count      int
	TotalBytes int64
	MeanBytes  float64
	MaxBytes   int64
	// ControlCount is requests under the 5 KB control threshold.
	ControlCount int
	// Duration spans first to last arrival.
	Duration float64
}

// Summarize computes Stats.
func Summarize(reqs []Request) Stats {
	var s Stats
	s.Count = len(reqs)
	if len(reqs) == 0 {
		return s
	}
	for _, r := range reqs {
		s.TotalBytes += r.Size
		if r.Size > s.MaxBytes {
			s.MaxBytes = r.Size
		}
		if r.Size < ControlFlowMaxBytes {
			s.ControlCount++
		}
	}
	s.MeanBytes = float64(s.TotalBytes) / float64(len(reqs))
	s.Duration = reqs[len(reqs)-1].At - reqs[0].At
	return s
}
