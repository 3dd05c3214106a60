// Powersave demonstrates sections VII-C and VII-D: passive (cold) content
// is replicated onto dormant-candidate servers so they can be scaled down,
// active content avoids them, and power-aware selection (the R̂/P metric)
// steers load toward energy-efficient machines in a heterogeneous fleet.
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/cluster"
	"repro/internal/content"
	"repro/internal/power"
	"repro/internal/workload"
)

func main() {
	const x = 100e6
	cfg := cluster.DefaultConfig(cluster.SCDA)
	cfg.Topology.X, cfg.Topology.K = x, 3
	cfg.Replicate = true
	cfg.Rscale = 0.5 * 0.95 * x // servers above half the idle rate are dormant candidates
	cfg.PowerAware, cfg.HeterogeneousPower = true, true
	cfg.Seed = 11
	c, err := cluster.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("heterogeneous fleet (age and rack position vary draw):")
	type row struct {
		name       string
		idle, peak float64
	}
	var rows []row
	c.Power.Each(func(s *power.Server) {
		rows = append(rows, row{c.TT.Graph.Nodes[s.Node].Name, s.Profile.IdleWatts, s.Profile.PeakWatts})
	})
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	for _, r := range rows[:5] {
		fmt.Printf("  %-8s idle %5.1f W  peak %5.1f W\n", r.name, r.idle, r.peak)
	}
	fmt.Printf("  ... %d servers total\n\n", len(rows))

	// Mixed workload: hot collaborative documents (interactive), video
	// publishing (semi-interactive), and cold archives (passive).
	reqs := []workload.Request{
		{At: 0.0, Client: 0, Content: "shared-doc", Size: 200_000, Class: content.Interactive},
		{At: 0.1, Client: 1, Content: "talk.mp4", Size: 6 << 20, Class: content.SemiInteractive},
		{At: 0.2, Client: 2, Content: "backup-2013.tar", Size: 10 << 20, Class: content.Passive},
		{At: 0.3, Client: 3, Content: "archive-q1.tar", Size: 8 << 20, Class: content.Passive},
	}
	for _, r := range reqs {
		if err := c.SubmitWrite(r); err != nil {
			log.Fatal(err)
		}
	}
	c.Sim.RunUntil(60)

	fmt.Println("placement (primary → replica):")
	for _, id := range []content.ID{"shared-doc", "talk.mp4", "backup-2013.tar", "archive-q1.tar"} {
		meta, err := c.FES.Lookup(id)
		if err != nil {
			log.Fatal(err)
		}
		reps := meta.Blocks[0].Replicas
		names := make([]string, len(reps))
		for i, r := range reps {
			names[i] = c.TT.Graph.Nodes[r].Name
		}
		fmt.Printf("  %-16s (%-16s) %v\n", id, meta.Info.Effective(), names)
	}

	// Scale down: put every server that holds only passive replicas (and
	// carries no traffic) into the dormant state, then compare energy.
	c.Power.AccrueAll(c.Sim.Now())
	before := c.Power.TotalEnergy()
	dormant := 0
	c.Power.Each(func(s *power.Server) {
		bs := c.FES.BlockServer(s.Node)
		if bs != nil && bs.NumBlocks() == 0 {
			s.Sleep(c.Sim.Now())
			dormant++
		}
	})
	c.Sim.RunUntil(c.Sim.Now() + 3600) // an idle hour
	c.Power.AccrueAll(c.Sim.Now())
	after := c.Power.TotalEnergy()

	fmt.Printf("\nscaled down %d idle servers; fleet drew %.2f kWh over the idle hour\n",
		dormant, (after-before)/3.6e6)
	activeOnly := float64(len(rows)) * 150 * 3600 // all-active baseline at idle draw
	fmt.Printf("an all-active fleet at nominal idle draw would burn ≈ %.2f kWh\n", activeOnly/3.6e6)
}
