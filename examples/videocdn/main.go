// Videocdn reproduces the paper's motivating scenario (section X-A1) as a
// head-to-head: a YouTube-style workload — short HTTP control flows plus
// heavy-tailed video uploads capped near 30 MB — served once by SCDA and
// once by the RandTCP baseline on the identical fig. 6 fabric, then a
// side-by-side report of completion times (the data behind figs. 7-9).
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	const (
		seed     = 7
		duration = 20.0 // arrival horizon, seconds
		x        = 100e6
	)
	spec := workload.DefaultVideoSpec()
	spec.ArrivalRate = 6 // scaled with the reduced bandwidth

	type outcome struct {
		name                   string
		mean, median, p90, p99 float64
		drops                  int64
		completed              int
	}
	var outcomes []outcome

	for _, sys := range []cluster.System{cluster.SCDA, cluster.RandTCP} {
		cfg := cluster.DefaultConfig(sys)
		cfg.Topology.X, cfg.Topology.K = x, 3
		cfg.Seed = seed
		c, err := cluster.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		reqs := spec.Generate(sim.NewRNG(seed), duration)
		m := c.RunWorkload(reqs, duration*3)
		cdf := m.FCTCDF()
		outcomes = append(outcomes, outcome{
			name:      sys.String(),
			mean:      m.MeanFCT(),
			median:    cdf.Quantile(0.5),
			p90:       cdf.Quantile(0.9),
			p99:       cdf.Quantile(0.99),
			drops:     m.Drops,
			completed: m.Completed,
		})
	}

	fmt.Printf("video workload: %d s of arrivals at %.0f videos/s, X=%.0f Mb/s K=3\n\n",
		int(duration), spec.ArrivalRate, x/1e6)
	fmt.Printf("%-8s %10s %10s %10s %10s %8s %10s\n",
		"system", "meanFCT", "median", "p90", "p99", "drops", "completed")
	for _, o := range outcomes {
		fmt.Printf("%-8s %9.3fs %9.3fs %9.3fs %9.3fs %8d %10d\n",
			o.name, o.mean, o.median, o.p90, o.p99, o.drops, o.completed)
	}
	s, r := outcomes[0], outcomes[1]
	fmt.Printf("\nSCDA mean FCT is %.0f%% lower than RandTCP (paper reports ≈50%%)\n",
		100*(r.mean-s.mean)/r.mean)
}
