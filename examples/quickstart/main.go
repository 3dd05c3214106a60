// Quickstart: build an SCDA cluster on the paper's fig. 6 topology, write
// one content from an external client, replicate it internally, read it
// back, and print the transfer times and the rates the RM/RA plane
// allocated along the way.
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/workload"
)

func main() {
	// An SCDA datacenter: 4 racks × 5 block servers behind a three-tier
	// switch tree, 40 external clients, X = 500 Mb/s, K = 3 — the paper's
	// video-trace setup — with section VIII-B internal replication on.
	cfg := cluster.DefaultConfig(cluster.SCDA)
	cfg.Replicate = true
	cfg.Seed = 42
	c, err := cluster.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Client 0 uploads a 4 MB video (section VIII-A: FES hashes the
	// request to a name node, the RA tree picks the best block server,
	// the transfer runs at the explicitly allocated rate).
	err = c.SubmitWrite(workload.Request{
		Client:  0,
		Content: "intro.mp4",
		Size:    4 << 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	c.Sim.RunUntil(30)

	meta, err := c.FES.Lookup("intro.mp4")
	if err != nil {
		log.Fatal(err)
	}
	names := make([]string, len(meta.Blocks[0].Replicas))
	for i, r := range meta.Blocks[0].Replicas {
		names[i] = c.TT.Graph.Nodes[r].Name
	}
	fmt.Printf("stored %q: %d block(s), replicas on servers %v\n",
		meta.Info.ID, len(meta.Blocks), names)

	// Client 7 reads it back (section VIII-C: the NNS picks the replica
	// with the best up-link rate).
	if err := c.SubmitRead(workload.Request{Client: 7, Content: "intro.mp4", Op: workload.Read}); err != nil {
		log.Fatal(err)
	}
	c.Sim.RunUntil(60)

	for _, r := range c.Metrics.Records {
		kind := "client"
		if r.Internal {
			kind = "replication"
		}
		fmt.Printf("%-12s %-5s %8d bytes in %6.3f s (%.1f Mb/s)\n",
			kind, r.Op, r.Size, r.FCT, float64(r.Size)*8/r.FCT/1e6)
	}

	// Peek at the allocation plane: the best servers the root RA would
	// advertise right now for each selection metric (section VII).
	root := c.Hier.Root()
	fmt.Printf("\nroot RA best servers: write→%v (down %.0f Mb/s)  read→%v (up %.0f Mb/s)  interactive→%v (min %.0f Mb/s)\n",
		c.TT.Graph.Nodes[root.BestDown.Server].Name, root.BestDown.Rate/1e6,
		c.TT.Graph.Nodes[root.BestUp.Server].Name, root.BestUp.Rate/1e6,
		c.TT.Graph.Nodes[root.BestMin.Server].Name, root.BestMin.Rate/1e6)
}
