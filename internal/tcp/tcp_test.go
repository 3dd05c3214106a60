package tcp

import (
	"math"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// rig is a two-host network and its mux.
type rig struct {
	s    *sim.Simulator
	net  *netsim.Network
	mux  *transport.Mux
	a, b topology.NodeID
}

func newRig(capacity, delay float64, queueBytes int) *rig {
	g := topology.NewGraph()
	a := g.AddNode(topology.Host, "a", 0)
	b := g.AddNode(topology.Host, "b", 0)
	g.AddDuplex(a, b, capacity, delay, 1)
	s := sim.New()
	cfg := netsim.DefaultConfig()
	if queueBytes > 0 {
		cfg.QueueBytes = queueBytes
	}
	n := netsim.New(s, g, cfg)
	return &rig{s: s, net: n, mux: transport.NewMux(n), a: a, b: b}
}

func TestShortFlowCompletes(t *testing.T) {
	r := newRig(10e6, 5e-3, 0)
	var fct sim.Time = -1
	f := Start(r.mux, &Flow{Conn: transport.Conn{
		ID: 1, Src: r.a, Dst: r.b, Size: 4000,
		OnComplete: func(d sim.Time) { fct = d },
	}}, DefaultConfig())
	r.s.RunUntil(60)
	if !f.Done() || fct < 0 {
		t.Fatal("flow did not complete")
	}
	// 3 segments over a 10ms-RTT link: at least one RTT, at most a few
	if fct < 0.010 || fct > 0.1 {
		t.Fatalf("fct = %v", fct)
	}
}

func TestLargeFlowSaturatesLink(t *testing.T) {
	r := newRig(10e6, 1e-3, 0)
	const size = 2_000_000 // 2 MB
	var fct sim.Time = -1
	Start(r.mux, &Flow{Conn: transport.Conn{
		ID: 1, Src: r.a, Dst: r.b, Size: size,
		OnComplete: func(d sim.Time) { fct = d },
	}}, DefaultConfig())
	r.s.RunUntil(300)
	if fct < 0 {
		t.Fatal("large flow did not complete")
	}
	ideal := float64(size*8) / 10e6
	if fct < ideal {
		t.Fatalf("fct %v faster than line rate %v", fct, ideal)
	}
	// should achieve at least ~50% of line rate including slow start
	if fct > 3*ideal {
		t.Fatalf("fct %v, over 3x ideal %v — window never grew", fct, ideal)
	}
}

func TestSlowStartDoubling(t *testing.T) {
	r := newRig(1e9, 10e-3, 0) // fat link: no losses
	f := Start(r.mux, &Flow{Conn: transport.Conn{
		ID: 1, Src: r.a, Dst: r.b, Size: 500_000,
	}}, DefaultConfig())
	// after ~2 RTTs of slow start cwnd should have grown well past initial
	r.s.RunUntil(0.075) // ~3 RTTs at 20ms RTT + tx
	if f.Cwnd() < 8 {
		t.Fatalf("cwnd = %v after 3 RTTs of slow start", f.Cwnd())
	}
}

func TestLossTriggersFastRetransmit(t *testing.T) {
	// tiny queue forces drops once the window exceeds the pipe
	r := newRig(5e6, 5e-3, 6000)
	var fct sim.Time = -1
	f := Start(r.mux, &Flow{Conn: transport.Conn{
		ID: 1, Src: r.a, Dst: r.b, Size: 1_000_000,
		OnComplete: func(d sim.Time) { fct = d },
	}}, DefaultConfig())
	r.s.RunUntil(300)
	if fct < 0 {
		t.Fatal("flow did not complete despite losses")
	}
	if f.Retransmits == 0 {
		t.Fatal("expected retransmissions with a 6KB buffer")
	}
}

func TestCompletionDespiteHeavyLoss(t *testing.T) {
	// pathological: queue barely fits two packets
	r := newRig(2e6, 2e-3, 3200)
	var fct sim.Time = -1
	Start(r.mux, &Flow{Conn: transport.Conn{
		ID: 1, Src: r.a, Dst: r.b, Size: 300_000,
		OnComplete: func(d sim.Time) { fct = d },
	}}, DefaultConfig())
	r.s.RunUntil(600)
	if fct < 0 {
		t.Fatal("flow never completed under heavy loss")
	}
}

func TestTwoFlowsShareLink(t *testing.T) {
	r := newRig(10e6, 2e-3, 0)
	done := 0
	var fcts []sim.Time
	for i := 0; i < 2; i++ {
		Start(r.mux, &Flow{Conn: transport.Conn{
			ID: netsim.FlowID(i + 1), Src: r.a, Dst: r.b, Size: 1_000_000,
			OnComplete: func(d sim.Time) { done++; fcts = append(fcts, d) },
		}}, DefaultConfig())
	}
	r.s.RunUntil(300)
	if done != 2 {
		t.Fatalf("%d of 2 flows completed", done)
	}
	// two 1MB flows over 10Mb/s: ideal serial ~1.6s total; both share, so
	// each takes >= 1.6s-ish. Just check they're in a sane band.
	for _, f := range fcts {
		if f < 0.8 || f > 60 {
			t.Fatalf("fct %v out of band", f)
		}
	}
}

func TestRTTEstimation(t *testing.T) {
	r := newRig(100e6, 25e-3, 0) // 50ms RTT
	f := Start(r.mux, &Flow{Conn: transport.Conn{
		ID: 1, Src: r.a, Dst: r.b, Size: 300_000,
	}}, DefaultConfig())
	r.s.RunUntil(5)
	if f.SRTT() < 0.050 || f.SRTT() > 0.080 {
		t.Fatalf("srtt = %v, want ≈ 0.05", f.SRTT())
	}
	if f.RTO() < f.cfg.MinRTO {
		t.Fatalf("rto %v below floor", f.RTO())
	}
}

func TestFCTScalesWithSize(t *testing.T) {
	sizes := []int64{10_000, 100_000, 1_000_000}
	var fcts []float64
	for i, size := range sizes {
		r := newRig(20e6, 5e-3, 0)
		var fct sim.Time = -1
		Start(r.mux, &Flow{Conn: transport.Conn{
			ID: netsim.FlowID(i + 1), Src: r.a, Dst: r.b, Size: size,
			OnComplete: func(d sim.Time) { fct = d },
		}}, DefaultConfig())
		r.s.RunUntil(300)
		if fct < 0 {
			t.Fatalf("size %d did not complete", size)
		}
		fcts = append(fcts, fct)
	}
	if !(fcts[0] < fcts[1] && fcts[1] < fcts[2]) {
		t.Fatalf("FCT not monotone in size: %v", fcts)
	}
}

func TestZeroSizePanics(t *testing.T) {
	r := newRig(1e6, 1e-3, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size flow accepted")
		}
	}()
	Start(r.mux, &Flow{Conn: transport.Conn{ID: 1, Src: r.a, Dst: r.b, Size: 0}}, DefaultConfig())
}

func TestOnCompleteExactlyOnce(t *testing.T) {
	r := newRig(10e6, 1e-3, 0)
	calls := 0
	Start(r.mux, &Flow{Conn: transport.Conn{
		ID: 1, Src: r.a, Dst: r.b, Size: 50_000,
		OnComplete: func(d sim.Time) { calls++ },
	}}, DefaultConfig())
	r.s.RunUntil(60)
	if calls != 1 {
		t.Fatalf("OnComplete called %d times", calls)
	}
}

func TestMuxEmptyAfterCompletion(t *testing.T) {
	r := newRig(10e6, 1e-3, 0)
	Start(r.mux, &Flow{Conn: transport.Conn{
		ID: 1, Src: r.a, Dst: r.b, Size: 50_000,
	}}, DefaultConfig())
	r.s.RunUntil(60)
	if n := r.mux.Len(); n != 0 {
		t.Fatalf("the mux holds %d open transfers", n)
	}
}

func TestManyParallelFlowsThroughTree(t *testing.T) {
	tt, err := topology.BuildThreeTier(topology.DefaultThreeTier())
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	n := netsim.New(s, tt.Graph, netsim.DefaultConfig())
	mux := transport.NewMux(n)
	done := 0
	var ids transport.FlowIDSource
	for i := 0; i < 30; i++ {
		src := tt.Clients[i%len(tt.Clients)]
		dst := tt.Servers[(i*7)%len(tt.Servers)]
		Start(mux, &Flow{Conn: transport.Conn{
			ID: ids.Next(), Src: src, Dst: dst, Size: 200_000,
			OnComplete: func(d sim.Time) { done++ },
		}}, DefaultConfig())
	}
	s.RunUntil(300)
	if done != 30 {
		t.Fatalf("%d of 30 flows completed", done)
	}
}

func TestSegmentsHelper(t *testing.T) {
	cases := []struct {
		size int64
		want int64
	}{
		{0, 0}, {1, 1}, {1460, 1}, {1461, 2}, {14600, 10},
	}
	for _, c := range cases {
		if got := transport.Segments(c.size); got != c.want {
			t.Errorf("Segments(%d) = %d, want %d", c.size, got, c.want)
		}
	}
	if w := transport.SegmentWire(1461, 1); w != 1+transport.HeaderBytes {
		t.Errorf("last-segment wire = %d", w)
	}
	if w := transport.SegmentWire(1461, 0); w != transport.DataPacketBytes {
		t.Errorf("full-segment wire = %d", w)
	}
}

func TestThroughputFairnessTwoFlows(t *testing.T) {
	// both flows long enough to reach steady state: FCTs within 3x
	r := newRig(10e6, 2e-3, 0)
	var fcts []float64
	for i := 0; i < 2; i++ {
		Start(r.mux, &Flow{Conn: transport.Conn{
			ID: netsim.FlowID(i + 1), Src: r.a, Dst: r.b, Size: 2_000_000,
			OnComplete: func(d sim.Time) { fcts = append(fcts, d) },
		}}, DefaultConfig())
	}
	r.s.RunUntil(600)
	if len(fcts) != 2 {
		t.Fatalf("completed %d", len(fcts))
	}
	ratio := fcts[0] / fcts[1]
	if ratio < 1 {
		ratio = 1 / ratio
	}
	if math.IsNaN(ratio) || ratio > 3 {
		t.Fatalf("flow FCTs too unequal: %v", fcts)
	}
}

func BenchmarkBulkTransfer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRig(100e6, 1e-3, 0)
		Start(r.mux, &Flow{Conn: transport.Conn{
			ID: 1, Src: r.a, Dst: r.b, Size: 1_000_000,
		}}, DefaultConfig())
		r.s.RunUntil(60)
	}
}
