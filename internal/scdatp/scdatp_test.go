package scdatp

import (
	"math"
	"testing"

	"repro/internal/netsim"
	"repro/internal/ratealloc"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// rig wires a chain topology, a live allocator ticking every τ, and a mux.
type rig struct {
	s    *sim.Simulator
	net  *netsim.Network
	mux  *transport.Mux
	ctrl *ratealloc.Controller
	a, b topology.NodeID
	path []topology.LinkID
}

func newRig(t *testing.T, capacity, delay float64) *rig {
	t.Helper()
	g := topology.NewGraph()
	a := g.AddNode(topology.Host, "a", 0)
	sw := g.AddNode(topology.Switch, "sw", 1)
	b := g.AddNode(topology.Host, "b", 0)
	l1 := g.AddDuplex(a, sw, capacity, delay, 1)
	l2 := g.AddDuplex(sw, b, capacity, delay, 1)
	s := sim.New()
	n := netsim.New(s, g, netsim.DefaultConfig())
	ctrl, err := ratealloc.NewController(g, n, ratealloc.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s.NewTicker(ctrl.Params.Tau, func() { ctrl.Tick(s.Now()) })
	return &rig{s: s, net: n, mux: transport.NewMux(n), ctrl: ctrl, a: a, b: b,
		path: []topology.LinkID{l1, l2}}
}

func (r *rig) startFlow(t *testing.T, id netsim.FlowID, size int64, onDone func(sim.Time)) *Flow {
	t.Helper()
	if err := r.ctrl.Register(&ratealloc.Flow{ID: id, Path: r.path}); err != nil {
		t.Fatal(err)
	}
	f := &Flow{Conn: transport.Conn{ID: id, Src: r.a, Dst: r.b, Size: size, OnComplete: func(d sim.Time) {
		r.ctrl.Unregister(id)
		if onDone != nil {
			onDone(d)
		}
	}}}
	return Start(r.mux, r.ctrl, f, DefaultConfig())
}

func TestSingleFlowCompletes(t *testing.T) {
	r := newRig(t, 100e6, 5e-3)
	var fct sim.Time = -1
	r.startFlow(t, 1, 1_000_000, func(d sim.Time) { fct = d })
	r.s.RunUntil(60)
	if fct < 0 {
		t.Fatal("flow did not complete")
	}
	ideal := 1_000_000 * 8 / (0.95 * 100e6)
	if fct < ideal {
		t.Fatalf("fct %v beats allocated rate %v", fct, ideal)
	}
	if fct > 4*ideal {
		t.Fatalf("fct %v, want ≲ 4× ideal %v", fct, ideal)
	}
}

func TestRateEnforcement(t *testing.T) {
	// a 10 Mb/s bottleneck: a 1 MB transfer should take ≈ 8Mb/9.5Mb ≈ 0.84s
	r := newRig(t, 10e6, 2e-3)
	var fct sim.Time = -1
	r.startFlow(t, 1, 1_000_000, func(d sim.Time) { fct = d })
	r.s.RunUntil(120)
	if fct < 0 {
		t.Fatal("no completion")
	}
	ideal := 1_000_000 * 8 / (0.95 * 10e6)
	if fct < ideal || fct > 1.5*ideal {
		t.Fatalf("fct = %v, want within [%v, %v]", fct, ideal, 1.5*ideal)
	}
}

func TestNoLossUnderAllocation(t *testing.T) {
	r := newRig(t, 50e6, 2e-3)
	done := 0
	for i := 0; i < 4; i++ {
		r.startFlow(t, netsim.FlowID(i+1), 2_000_000, func(d sim.Time) { done++ })
	}
	r.s.RunUntil(120)
	if done != 4 {
		t.Fatalf("%d of 4 completed", done)
	}
	if r.net.TotalDrops > 0 {
		t.Fatalf("%d drops despite explicit rate control", r.net.TotalDrops)
	}
}

func TestFairSharing(t *testing.T) {
	r := newRig(t, 40e6, 2e-3)
	var fcts []float64
	for i := 0; i < 4; i++ {
		r.startFlow(t, netsim.FlowID(i+1), 1_000_000, func(d sim.Time) { fcts = append(fcts, d) })
	}
	r.s.RunUntil(120)
	if len(fcts) != 4 {
		t.Fatalf("completed %d", len(fcts))
	}
	// equal sizes, equal start, equal rate → near-equal FCTs
	min, max := fcts[0], fcts[0]
	for _, f := range fcts {
		min = math.Min(min, f)
		max = math.Max(max, f)
	}
	if max/min > 1.25 {
		t.Fatalf("unfair FCT spread: %v", fcts)
	}
	// 4 flows × 8Mb over 9.5Mb/s effective each: ≈ 3.4s
	ideal := 4 * 1_000_000 * 8 / (0.95 * 40e6)
	if max > 1.6*ideal {
		t.Fatalf("slowest fct %v, want ≲ 1.6× %v", max, ideal)
	}
}

func TestWindowTracksRateChanges(t *testing.T) {
	r := newRig(t, 100e6, 5e-3)
	f := r.startFlow(t, 1, 50_000_000, nil)
	r.s.RunUntil(1)
	soloWindow := f.Window()
	// a competitor halves the rate; the window must shrink within ~2τ
	r.startFlow(t, 2, 50_000_000, nil)
	r.s.RunUntil(1.5)
	sharedWindow := f.Window()
	if sharedWindow >= soloWindow {
		t.Fatalf("window did not shrink: solo=%d shared=%d", soloWindow, sharedWindow)
	}
	ratio := float64(soloWindow) / float64(sharedWindow)
	if ratio < 1.5 || ratio > 3 {
		t.Fatalf("window ratio = %v, want ≈ 2", ratio)
	}
}

func TestShortFlowLatency(t *testing.T) {
	// one-segment flow: FCT ≈ one RTT (no slow start to climb through —
	// the core of the paper's AFCT advantage for small content)
	r := newRig(t, 100e6, 5e-3)
	var fct sim.Time = -1
	r.startFlow(t, 1, 1000, func(d sim.Time) { fct = d })
	r.s.RunUntil(10)
	if fct < 0 {
		t.Fatal("no completion")
	}
	rtt := 4 * 5e-3 // 2 links each way
	if fct < rtt || fct > rtt+0.01 {
		t.Fatalf("1-segment fct = %v, want ≈ RTT %v", fct, rtt)
	}
}

func TestSRTTConverges(t *testing.T) {
	r := newRig(t, 100e6, 10e-3)
	f := r.startFlow(t, 1, 10_000_000, nil)
	r.s.RunUntil(2)
	// true RTT = 4×10ms plus small tx/queueing
	if f.SRTT() < 0.040 || f.SRTT() > 0.055 {
		t.Fatalf("srtt = %v, want ≈ 0.04", f.SRTT())
	}
}

func TestRecoveryFromInducedLoss(t *testing.T) {
	// sabotage: shrink queue so the initial optimistic window overflows
	g := topology.NewGraph()
	a := g.AddNode(topology.Host, "a", 0)
	sw := g.AddNode(topology.Switch, "sw", 1)
	b := g.AddNode(topology.Host, "b", 0)
	l1 := g.AddDuplex(a, sw, 5e6, 2e-3, 1)
	g.AddDuplex(sw, b, 100e6, 2e-3, 1)
	s := sim.New()
	cfg := netsim.DefaultConfig()
	cfg.QueueBytes = 8000 // ~5 packets
	n := netsim.New(s, g, cfg)
	ctrl, err := ratealloc.NewController(g, n, ratealloc.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s.NewTicker(ctrl.Params.Tau, func() { ctrl.Tick(s.Now()) })
	ctrl.Register(&ratealloc.Flow{ID: 1, Path: []topology.LinkID{l1}})
	var fct sim.Time = -1
	f := Start(transport.NewMux(n), ctrl, &Flow{Conn: transport.Conn{ID: 1, Src: a, Dst: b, Size: 400_000,
		OnComplete: func(d sim.Time) { fct = d }}}, DefaultConfig())
	s.RunUntil(300)
	if fct < 0 {
		t.Fatalf("flow never recovered from loss (retransmits=%d)", f.Retransmits)
	}
}

func TestOnCompleteOnce(t *testing.T) {
	r := newRig(t, 50e6, 1e-3)
	calls := 0
	r.startFlow(t, 1, 100_000, func(d sim.Time) { calls++ })
	r.s.RunUntil(30)
	if calls != 1 {
		t.Fatalf("OnComplete ×%d", calls)
	}
	if n := r.mux.Len(); n != 0 {
		t.Fatalf("the mux holds %d open transfers", n)
	}
}

func TestZeroSizePanics(t *testing.T) {
	r := newRig(t, 50e6, 1e-3)
	defer func() {
		if recover() == nil {
			t.Fatal("zero size accepted")
		}
	}()
	Start(r.mux, r.ctrl, &Flow{Conn: transport.Conn{ID: 1, Src: r.a, Dst: r.b, Size: 0}}, DefaultConfig())
}

func TestManyFlowsConserveCapacity(t *testing.T) {
	// aggregate goodput of 8 concurrent flows should approach α×capacity
	r := newRig(t, 80e6, 2e-3)
	const size = 1_500_000
	done := 0
	var last sim.Time
	for i := 0; i < 8; i++ {
		r.startFlow(t, netsim.FlowID(i+1), size, func(d sim.Time) {
			done++
			last = r.s.Now()
		})
	}
	r.s.RunUntil(300)
	if done != 8 {
		t.Fatalf("completed %d/8", done)
	}
	goodput := float64(8*size*8) / last
	if goodput < 0.80*80e6 {
		t.Fatalf("aggregate goodput %v < 80%% of capacity", goodput)
	}
}

func BenchmarkSCDATransfer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := topology.NewGraph()
		a := g.AddNode(topology.Host, "a", 0)
		sw := g.AddNode(topology.Switch, "sw", 1)
		c := g.AddNode(topology.Host, "b", 0)
		l1 := g.AddDuplex(a, sw, 100e6, 1e-3, 1)
		l2 := g.AddDuplex(sw, c, 100e6, 1e-3, 1)
		s := sim.New()
		n := netsim.New(s, g, netsim.DefaultConfig())
		ctrl, _ := ratealloc.NewController(g, n, ratealloc.DefaultParams())
		s.NewTicker(ctrl.Params.Tau, func() { ctrl.Tick(s.Now()) })
		ctrl.Register(&ratealloc.Flow{ID: 1, Path: []topology.LinkID{l1, l2}})
		done := false
		Start(transport.NewMux(n), ctrl, &Flow{Conn: transport.Conn{ID: 1, Src: a, Dst: c, Size: 1_000_000,
			OnComplete: func(d sim.Time) { done = true; s.Stop() }}}, DefaultConfig())
		s.RunUntil(60)
		if !done {
			b.Fatal("incomplete")
		}
	}
}

func TestRemainingBytesDecreases(t *testing.T) {
	r := newRig(t, 50e6, 2e-3)
	f := r.startFlow(t, 1, 1_000_000, nil)
	if got := f.RemainingBytes(); got != 1_000_000 {
		t.Fatalf("initial remaining = %d", got)
	}
	r.s.RunUntil(0.1)
	mid := f.RemainingBytes()
	if mid >= 1_000_000 {
		t.Fatal("remaining did not decrease")
	}
	r.s.RunUntil(60)
	if got := f.RemainingBytes(); got != 0 {
		t.Fatalf("final remaining = %d", got)
	}
}
