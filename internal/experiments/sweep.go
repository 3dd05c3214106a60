package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// SweepResult is a parameter sweep over both systems.
type SweepResult struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	// Series[0] = SCDA, Series[1] = RandTCP; X = swept parameter,
	// Y = mean FCT.
	Series []stats.Series
}

// baselineClients anchors the client-scale sweep's per-client demand: the
// default DC workload spec spreads its arrival rate across this many
// clients, so a population of n keeps demand fixed per client by scaling
// total arrivals by n/baselineClients. Derived from the spec rather than
// hardcoded so a change to the default cannot silently skew the sweep.
var baselineClients = workload.DefaultDCSpec().Clients

// ClientScaleSweep varies the client population — the paper's fig. 6
// topology carries "n × 163" clients with n = 10 and n = 100 — and records
// mean FCT for both systems at fixed per-client demand. SCDA's advantage
// should persist (or grow) as contention rises, since random placement
// collides more often at scale. Points run concurrently on the pool (nil =
// default); each (population, system) cell derives its own RNG from
// sc.Seed, so results match a serial sweep exactly.
func ClientScaleSweep(clientCounts []int, sc Scale, p *runner.Pool) (SweepResult, error) {
	if len(clientCounts) == 0 {
		clientCounts = []int{10, 20, 40, 80}
	}
	res := SweepResult{
		ID:     "sweep-clients",
		Title:  "mean FCT vs client population (fixed per-client demand)",
		XLabel: "clients",
		YLabel: "mean FCT (sec)",
		Series: []stats.Series{{Name: "SCDA"}, {Name: "RandTCP"}},
	}
	for _, n := range clientCounts {
		if n <= 0 {
			return res, fmt.Errorf("experiments: client count %d", n)
		}
	}
	systems := []cluster.System{cluster.SCDA, cluster.RandTCP}
	cells, err := runner.Map(p, len(clientCounts)*len(systems), func(i int) (stats.Point, error) {
		n := clientCounts[i/len(systems)]
		sys := systems[i%len(systems)]
		cfg := baseConfig(sys, 500e6, 3, sc)
		cfg.Topology.Clients = n
		c, err := cluster.New(cfg)
		if err != nil {
			return stats.Point{}, err
		}
		spec := dcSpec(sc)
		spec.Clients = n
		// fixed per-client demand: total arrivals scale with n
		spec.ArrivalRate = spec.ArrivalRate * float64(n) / float64(baselineClients)
		reqs := spec.Generate(sim.NewRNG(sc.Seed), sc.Duration)
		m := c.RunWorkload(reqs, sc.Duration*3)
		return stats.Point{X: float64(n), Y: m.MeanFCT()}, nil
	})
	if err != nil {
		return res, err
	}
	for i, pt := range cells {
		res.Series[i%len(systems)].Points = append(res.Series[i%len(systems)].Points, pt)
	}
	return res, nil
}

// NNSScaleSweep varies the name-node count and records the hottest node's
// metadata load, quantifying the paper's multiple-NNS scalability claim as
// a curve (extends ablation A5). Points run concurrently on the pool.
func NNSScaleSweep(nnsCounts []int, sc Scale, p *runner.Pool) (SweepResult, error) {
	if len(nnsCounts) == 0 {
		nnsCounts = []int{1, 2, 4, 8}
	}
	res := SweepResult{
		ID:     "sweep-nns",
		Title:  "peak per-NNS metadata load vs name-node count",
		XLabel: "name nodes",
		YLabel: "peak requests at one NNS",
		Series: []stats.Series{{Name: "SCDA"}},
	}
	for _, n := range nnsCounts {
		if n <= 0 {
			return res, fmt.Errorf("experiments: NNS count %d", n)
		}
	}
	pts, err := runner.Map(p, len(nnsCounts), func(i int) (stats.Point, error) {
		n := nnsCounts[i]
		c, err := dcRun(sc, func(cfg *cluster.Config) { cfg.NumNNS = n })
		if err != nil {
			return stats.Point{}, err
		}
		peak := int64(0)
		for _, l := range c.FES.LoadByNNS() {
			if l > peak {
				peak = l
			}
		}
		return stats.Point{X: float64(n), Y: float64(peak)}, nil
	})
	if err != nil {
		return res, err
	}
	res.Series[0].Points = pts
	return res, nil
}
