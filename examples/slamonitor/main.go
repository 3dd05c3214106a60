// Slamonitor walks through SCDA's SLA machinery (section IV): explicit
// minimum-rate reservations carve capacity out of a link, an
// over-subscription is detected by the RM/RA plane within a couple of
// control intervals, and the cluster mitigates by activating spare
// capacity ("reserve, backup or recovery links").
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/ratealloc"
	"repro/internal/topology"
)

func main() {
	cfg := cluster.DefaultConfig(cluster.SCDA)
	cfg.Seed = 3
	c, err := cluster.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	c.MitigateViolations = true

	x := c.Cfg.Topology.X
	srv := c.TT.Servers[0]
	up := c.TT.UplinkOf[srv]
	fmt.Printf("target link: %s → its ToR, capacity %.0f Mb/s\n",
		c.TT.Graph.Nodes[srv].Name, x/1e6)

	c.OnViolation = func(v ratealloc.Violation) {
		fmt.Printf("t=%.2fs  SLA VIOLATION on link %d: demand sum %.0f Mb/s vs effective capacity %.0f Mb/s\n",
			v.Time, v.Link, v.S/1e6, v.CapEff/1e6)
	}

	// Phase 1: two tenants reserve 30% of the link each (section IV-C);
	// a third best-effort flow shares the remainder. All satisfiable.
	paths := []topology.LinkID{up}
	for i, m := range []float64{0.3 * x, 0.3 * x, 0} {
		if err := c.Ctrl.Register(&ratealloc.Flow{
			ID: ratealloc.FlowID(i + 1), Path: paths, MinRate: m,
		}); err != nil {
			log.Fatal(err)
		}
	}
	c.Sim.RunUntil(1)
	fmt.Println("\nafter convergence (reservations satisfiable):")
	for i := 1; i <= 3; i++ {
		fmt.Printf("  flow %d rate = %.1f Mb/s\n", i, c.Ctrl.FlowRate(ratealloc.FlowID(i))/1e6)
	}
	fmt.Printf("  violations so far: %d\n", c.Ctrl.Violations)

	// Phase 2: a fourth tenant reserves another 50% — the SLAs are now
	// unsatisfiable (30+30+50 > 95% of capacity). Detection fires within
	// two control intervals; mitigation activates spare capacity.
	fmt.Println("\nt=1.0s: fourth tenant reserves 50% — over-subscription")
	c.Sim.At(1.0, func() {
		if err := c.Ctrl.Register(&ratealloc.Flow{
			ID: 4, Path: paths, MinRate: 0.5 * x,
		}); err != nil {
			log.Fatal(err)
		}
	})
	c.Sim.RunUntil(2)

	fmt.Printf("\nafter mitigation: link capacity %.0f Mb/s (was %.0f)\n",
		c.Ctrl.Link(up).Capacity/1e6, x/1e6)
	for i := 1; i <= 4; i++ {
		fmt.Printf("  flow %d rate = %.1f Mb/s\n", i, c.Ctrl.FlowRate(ratealloc.FlowID(i))/1e6)
	}
}
