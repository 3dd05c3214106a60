package experiments

import (
	"repro/internal/cluster"
	"repro/internal/netsim"
	"repro/internal/ratealloc"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/workload"
)

// AblationOpenFlowSJF (A9) validates section IV-B: the per-flow
// packet-count queue discipline (the OpenFlow shortest-job-first
// approximation) cuts short-flow completion time when mice share a
// bottleneck with elephants, compared with plain FIFO.
func AblationOpenFlowSJF(sc Scale) (AblationResult, error) {
	run := func(disc netsim.QueueDiscipline) (float64, error) {
		g := topology.NewGraph()
		a := g.AddNode(topology.Host, "a", 0)
		sw := g.AddNode(topology.Switch, "s", 1)
		b := g.AddNode(topology.Host, "b", 0)
		g.AddDuplex(a, sw, 20e6, 2e-3, 1)
		g.AddDuplex(sw, b, 20e6, 2e-3, 1)
		s := sim.New()
		cfg := netsim.DefaultConfig()
		cfg.Discipline = disc
		net := netsim.New(s, g, cfg)
		mux := transport.NewMux(net)
		// two elephants + a stream of mice over TCP (the discipline acts
		// on the switch regardless of endpoint rate control)
		var ids transport.FlowIDSource
		for i := 0; i < 2; i++ {
			tcp.Start(mux, &tcp.Flow{Conn: transport.Conn{ID: ids.Next(), Src: a, Dst: b, Size: 20_000_000}}, tcp.DefaultConfig())
		}
		miceFCT := 0.0
		miceDone := 0
		const nMice = 20
		for i := 0; i < nMice; i++ {
			at := 1 + float64(i)*0.25
			s.At(at, func() {
				tcp.Start(mux, &tcp.Flow{Conn: transport.Conn{
					ID: ids.Next(), Src: a, Dst: b, Size: 20_000,
					OnComplete: func(fct sim.Time) { miceFCT += fct; miceDone++ },
				}}, tcp.DefaultConfig())
			})
		}
		s.RunUntil(120)
		if miceDone == 0 {
			return 0, nil
		}
		return miceFCT / float64(miceDone), nil
	}
	fifo, err := run(netsim.FIFO)
	if err != nil {
		return AblationResult{}, err
	}
	sjf, err := run(netsim.SmallestFlowFirst)
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{
		ID:    "A9",
		Title: "OpenFlow per-flow packet-count scheduling (IV-B) helps mice",
		Values: map[string]float64{
			"mice_mean_fct_fifo": fifo,
			"mice_mean_fct_sjf":  sjf,
			"speedup":            fifo / sjf,
		},
		Passed:  sjf > 0 && sjf < fifo,
		Details: "packets of low-count flows overtake elephants at the switch",
	}, nil
}

// AblationSchedulerSJF (A10) validates the adaptive priority route to SJF
// (section IV-A): weighting flows inversely by remaining size through the
// allocation plane cuts short-flow FCT versus neutral weights.
func AblationSchedulerSJF(sc Scale) (AblationResult, error) {
	run := func(useSJF bool) (shortMean float64, err error) {
		g := topology.NewGraph()
		a := g.AddNode(topology.Host, "a", 0)
		sw := g.AddNode(topology.Switch, "s", 1)
		b := g.AddNode(topology.Host, "b", 0)
		l1 := g.AddDuplex(a, sw, 50e6, 2e-3, 1)
		l2 := g.AddDuplex(sw, b, 50e6, 2e-3, 1)
		path := []topology.LinkID{l1, l2}
		ctrl, err := ratealloc.NewController(g, zeroReader{}, ratealloc.DefaultParams())
		if err != nil {
			return 0, err
		}
		sched := scheduler.New(ctrl)
		// 2 elephants + 6 mice sharing the path in the fluid allocation
		type job struct {
			id   ratealloc.FlowID
			bits float64
			sjf  *scheduler.SJF
		}
		var jobs []*job
		mk := func(id int, bits float64) {
			j := &job{id: ratealloc.FlowID(id), bits: bits}
			if err := ctrl.Register(&ratealloc.Flow{ID: j.id, Path: path}); err != nil {
				panic(err)
			}
			if useSJF {
				j.sjf = &scheduler.SJF{Scale: 1 << 20}
				j.sjf.SetRemaining(bits / 8)
				sched.Attach(j.id, j.sjf)
			}
			jobs = append(jobs, j)
		}
		for i := 0; i < 2; i++ {
			mk(i+1, 400e6) // 50 MB elephants
		}
		for i := 0; i < 6; i++ {
			mk(i+10, 4e6) // 500 KB mice
		}
		// fluid execution: drain each job at its allocated rate per τ
		tau := ctrl.Params.Tau
		var shortSum float64
		shortDone := 0
		for step := 0; step < 4000 && shortDone < 6; step++ {
			now := float64(step) * tau
			ctrl.Tick(now)
			sched.Step(now)
			for _, j := range jobs {
				if j.bits <= 0 {
					continue
				}
				j.bits -= ctrl.FlowRate(j.id) * tau
				if j.sjf != nil {
					j.sjf.SetRemaining(j.bits / 8)
				}
				if j.bits <= 0 {
					ctrl.Unregister(j.id)
					sched.Detach(j.id)
					if j.id >= 10 {
						shortSum += now
						shortDone++
					}
				}
			}
		}
		if shortDone == 0 {
			return 0, nil
		}
		return shortSum / float64(shortDone), nil
	}
	neutral, err := run(false)
	if err != nil {
		return AblationResult{}, err
	}
	sjf, err := run(true)
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{
		ID:    "A10",
		Title: "adaptive priorities realise SJF through the allocator (IV-A)",
		Values: map[string]float64{
			"short_mean_fct_neutral": neutral,
			"short_mean_fct_sjf":     sjf,
			"speedup":                neutral / sjf,
		},
		Passed:  sjf > 0 && sjf < neutral,
		Details: "℘ ∝ 1/remaining gives mice most of the bottleneck until they finish",
	}, nil
}

// AblationFailureRecovery (A11) exercises the monitoring plane's failure
// role: under a live mixed read/write workload, a server failure is
// followed by automatic re-replication, and subsequent reads of its
// content still complete.
func AblationFailureRecovery(sc Scale) (AblationResult, error) {
	cfg := cluster.DefaultConfig(cluster.SCDA)
	cfg.Seed = sc.Seed
	cfg.Replicate = true
	c, err := cluster.New(cfg)
	if err != nil {
		return AblationResult{}, err
	}
	spec := workload.DefaultMixedSpec()
	spec.WriteRate *= sc.ArrivalScale * 10 // keep a few writes even at tiny scales
	reqs := spec.Generate(sim.NewRNG(sc.Seed), sc.Duration)
	// fail the busiest server halfway through the workload
	c.Sim.At(sc.Duration/2, func() {
		var victim topology.NodeID = topology.None
		best := 0
		for _, s := range c.TT.Servers {
			if n := c.FES.BlockServer(s).NumBlocks(); n > best {
				victim, best = s, n
			}
		}
		if victim != topology.None {
			_ = c.FailServer(victim)
		}
	})
	m := c.RunWorkload(reqs, sc.Duration*3)
	completionFrac := 0.0
	if m.Started > 0 {
		completionFrac = float64(m.Completed) / float64(m.Started)
	}
	// Contents whose upload was still in flight at the failure instant
	// have no second copy yet and are legitimately unrecoverable from
	// inside the cloud (the client retries); allow a small number of
	// such casualties but no losses among replicated blocks.
	lostBudget := int64(float64(m.Started)*0.02) + 1
	return AblationResult{
		ID:    "A11",
		Title: "failure detection and re-replication under live load",
		Values: map[string]float64{
			"started":         float64(m.Started),
			"completed":       float64(m.Completed),
			"re_replicated":   float64(m.ReReplicated),
			"lost_blocks":     float64(m.LostBlocks),
			"completion_frac": completionFrac,
		},
		Passed:  m.ReReplicated > 0 && m.LostBlocks <= lostBudget && completionFrac > 0.9,
		Details: "replicated content survives a server failure (mid-upload blocks need client retry); reads continue",
	}, nil
}
