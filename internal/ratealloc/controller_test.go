package ratealloc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

// fakeReader supplies queue/arrival readings without a packet simulation.
type fakeReader struct {
	queues  map[topology.LinkID]float64
	arrived map[topology.LinkID]float64
}

func newFakeReader() *fakeReader {
	return &fakeReader{
		queues:  make(map[topology.LinkID]float64),
		arrived: make(map[topology.LinkID]float64),
	}
}

func (f *fakeReader) QueueBits(l topology.LinkID) float64   { return f.queues[l] }
func (f *fakeReader) ArrivedBits(l topology.LinkID) float64 { return f.arrived[l] }

// line builds a chain topology h0 - s1 - s2 - ... - hN of hosts at both
// ends with switches between, returning the graph and the ordered
// host-to-host directed path.
func chainGraph(capacities []float64) (*topology.Graph, []topology.LinkID) {
	g := topology.NewGraph()
	a := g.AddNode(topology.Host, "a", 0)
	prev := a
	var path []topology.LinkID
	for i, c := range capacities {
		var next topology.NodeID
		if i == len(capacities)-1 {
			next = g.AddNode(topology.Host, "b", 0)
		} else {
			next = g.AddNode(topology.Switch, "s", i+1)
		}
		l := g.AddDuplex(prev, next, c, 1e-3, i+1)
		path = append(path, l)
		prev = next
	}
	return g, path
}

func tickN(c *Controller, n int) {
	for i := 0; i < n; i++ {
		c.Tick(float64(i) * c.Params.Tau)
	}
}

func TestSingleLinkFairShare(t *testing.T) {
	g, path := chainGraph([]float64{100e6})
	c, err := NewController(g, newFakeReader(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	for i := 0; i < n; i++ {
		if err := c.Register(&Flow{ID: FlowID(i + 1), Path: path}); err != nil {
			t.Fatal(err)
		}
	}
	tickN(c, 20)
	want := 0.95 * 100e6 / n
	for i := 0; i < n; i++ {
		got := c.FlowRate(FlowID(i + 1))
		if math.Abs(got-want)/want > 0.01 {
			t.Fatalf("flow %d rate = %v, want ≈ %v", i+1, got, want)
		}
	}
}

func TestMaxMinUnusedCapacityReallocated(t *testing.T) {
	// flow B crosses links L1 (10M) and L2 (4M); flow A only L1.
	// Max-min: B gets α·4M at L2; A gets α·10M − α·4M at L1... precisely
	// A's share = α(10M) − R_B = 9.5M − 3.8M = 5.7M.
	g := topology.NewGraph()
	a := g.AddNode(topology.Host, "a", 0)
	s := g.AddNode(topology.Switch, "s", 1)
	b := g.AddNode(topology.Host, "b", 0)
	c1 := g.AddDuplex(a, s, 10e6, 1e-3, 1)
	c2 := g.AddDuplex(s, b, 4e6, 1e-3, 1)
	c, err := NewController(g, newFakeReader(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Register(&Flow{ID: 1, Path: []topology.LinkID{c1}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(&Flow{ID: 2, Path: []topology.LinkID{c1, c2}}); err != nil {
		t.Fatal(err)
	}
	tickN(c, 60)
	rB := c.FlowRate(2)
	rA := c.FlowRate(1)
	if math.Abs(rB-3.8e6)/3.8e6 > 0.02 {
		t.Fatalf("bottlenecked flow rate = %v, want ≈ 3.8e6", rB)
	}
	if math.Abs(rA-5.7e6)/5.7e6 > 0.05 {
		t.Fatalf("max-min leftover = %v, want ≈ 5.7e6 (9.5M − 3.8M)", rA)
	}
	// the effective flow count on L1 must be below 2: B counts as a
	// fraction (eq. 3's core max-min property)
	nhat := c.Link(c1).Nhat
	if nhat >= 1.9 || nhat <= 1.0 {
		t.Fatalf("N̂ on shared link = %v, want in (1, 1.9)", nhat)
	}
}

func TestDemandLimitedFlowFreesCapacity(t *testing.T) {
	g, path := chainGraph([]float64{100e6})
	c, _ := NewController(g, newFakeReader(), DefaultParams())
	c.Register(&Flow{ID: 1, Path: path, Demand: 5e6})
	c.Register(&Flow{ID: 2, Path: path})
	tickN(c, 40)
	if got := c.FlowRate(1); math.Abs(got-5e6) > 1e3 {
		t.Fatalf("demand-limited flow = %v, want 5e6", got)
	}
	want := 0.95*100e6 - 5e6
	if got := c.FlowRate(2); math.Abs(got-want)/want > 0.02 {
		t.Fatalf("greedy flow = %v, want ≈ %v", got, want)
	}
}

func TestPriorityWeights(t *testing.T) {
	g, path := chainGraph([]float64{90e6})
	c, _ := NewController(g, newFakeReader(), DefaultParams())
	c.Register(&Flow{ID: 1, Path: path, Priority: 2})
	c.Register(&Flow{ID: 2, Path: path, Priority: 1})
	tickN(c, 40)
	r1, r2 := c.FlowRate(1), c.FlowRate(2)
	if ratio := r1 / r2; math.Abs(ratio-2) > 0.05 {
		t.Fatalf("priority ratio = %v (r1=%v r2=%v), want 2", ratio, r1, r2)
	}
	total := r1 + r2
	want := 0.95 * 90e6
	if math.Abs(total-want)/want > 0.02 {
		t.Fatalf("total = %v, want ≈ %v", total, want)
	}
}

func TestPriorityAdaptationAchievesTarget(t *testing.T) {
	// section IV-A: a source reaches a desired rate by setting
	// ℘ = R_desired / R_current each round.
	g, path := chainGraph([]float64{100e6})
	c, _ := NewController(g, newFakeReader(), DefaultParams())
	c.Register(&Flow{ID: 1, Path: path})
	c.Register(&Flow{ID: 2, Path: path})
	c.Register(&Flow{ID: 3, Path: path})
	const target = 60e6
	for i := 0; i < 100; i++ {
		c.Tick(float64(i) * c.Params.Tau)
		if cur := c.FlowRate(1); cur > 0 {
			c.SetPriority(1, clamp(target/(cur/c.flows[1].Priority), 0.1, 100))
		}
	}
	if got := c.FlowRate(1); math.Abs(got-target)/target > 0.05 {
		t.Fatalf("adaptive priority flow = %v, want ≈ %v", got, target)
	}
}

func TestReservationCarveOut(t *testing.T) {
	g, path := chainGraph([]float64{100e6})
	c, _ := NewController(g, newFakeReader(), DefaultParams())
	c.Register(&Flow{ID: 1, Path: path, MinRate: 40e6})
	c.Register(&Flow{ID: 2, Path: path})
	tickN(c, 40)
	shared := 0.95*100e6 - 40e6 // pool after carve-out
	wantReserved := 40e6 + shared/2
	wantOther := shared / 2
	if got := c.FlowRate(1); math.Abs(got-wantReserved)/wantReserved > 0.03 {
		t.Fatalf("reserved flow = %v, want ≈ %v", got, wantReserved)
	}
	if got := c.FlowRate(2); math.Abs(got-wantOther)/wantOther > 0.03 {
		t.Fatalf("unreserved flow = %v, want ≈ %v", got, wantOther)
	}
}

func TestOversubscribedReservationsTripSLA(t *testing.T) {
	g, path := chainGraph([]float64{100e6})
	c, _ := NewController(g, newFakeReader(), DefaultParams())
	var got []Violation
	c.OnViolation = func(v Violation) { got = append(got, v) }
	// 3 × 40M reservations on a 100M link: unsatisfiable SLAs
	for i := 0; i < 3; i++ {
		c.Register(&Flow{ID: FlowID(i + 1), Path: path, MinRate: 40e6})
	}
	// detection requires the breach to persist two consecutive intervals
	c.Tick(0)
	c.Tick(c.Params.Tau)
	if len(got) == 0 {
		t.Fatal("over-subscribed reservations not detected within two intervals")
	}
	if got[0].Link != path[0] && got[0].Link != g.Links[path[0]].Reverse {
		t.Fatalf("violation on unexpected link %d", got[0].Link)
	}
	if c.Violations == 0 {
		t.Fatal("violation counter not incremented")
	}
}

func TestQueuePressureReducesRate(t *testing.T) {
	g, path := chainGraph([]float64{100e6})
	fr := newFakeReader()
	c, _ := NewController(g, fr, DefaultParams())
	c.Register(&Flow{ID: 1, Path: path})
	tickN(c, 20)
	base := c.FlowRate(1)
	// a standing queue of 1M bits must cut the advertised rate by βQ/τ
	fr.queues[path[0]] = 1e6
	tickN(c, 20)
	loaded := c.FlowRate(1)
	wantDrop := 1e6 / c.Params.Tau // 20e6 at τ=50ms
	if math.Abs((base-loaded)-wantDrop)/wantDrop > 0.05 {
		t.Fatalf("rate drop = %v, want ≈ %v (βQ/τ)", base-loaded, wantDrop)
	}
}

func TestSimplifiedModeConverges(t *testing.T) {
	// eq. 5: with arrival rate Λ tracking allocation, R converges so that
	// Λ → effective capacity.
	g, path := chainGraph([]float64{100e6})
	fr := newFakeReader()
	p := DefaultParams()
	p.Mode = Simplified
	c, _ := NewController(g, fr, p)
	c.Register(&Flow{ID: 1, Path: path})
	c.Register(&Flow{ID: 2, Path: path})
	// close the loop: each interval the two flows send at their allocated
	// rates, feeding the link's arrival counter.
	for i := 0; i < 60; i++ {
		arrival := (c.FlowRate(1) + c.FlowRate(2)) * p.Tau
		fr.arrived[path[0]] += arrival
		c.Tick(float64(i) * p.Tau)
	}
	want := 0.95 * 100e6 / 2
	for id := FlowID(1); id <= 2; id++ {
		if got := c.FlowRate(id); math.Abs(got-want)/want > 0.05 {
			t.Fatalf("simplified-mode flow %d = %v, want ≈ %v", id, got, want)
		}
	}
}

func TestRegisterUnregister(t *testing.T) {
	g, path := chainGraph([]float64{100e6})
	c, _ := NewController(g, newFakeReader(), DefaultParams())
	if err := c.Register(&Flow{ID: 1, Path: path}); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(&Flow{ID: 1, Path: path}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := c.Register(&Flow{ID: 2, Path: nil}); err == nil {
		t.Fatal("empty path accepted")
	}
	c.Register(&Flow{ID: 3, Path: path})
	tickN(c, 20)
	twoShare := c.FlowRate(1)
	c.Unregister(3)
	tickN(c, 20)
	oneShare := c.FlowRate(1)
	if oneShare < 1.8*twoShare {
		t.Fatalf("rate after departure = %v, want ≈ 2× %v", oneShare, twoShare)
	}
	c.Unregister(3) // double unregister is a no-op
	if c.NumFlows() != 1 {
		t.Fatalf("NumFlows = %d", c.NumFlows())
	}
	if c.FlowRate(99) != 0 {
		t.Fatal("unknown flow rate not 0")
	}
}

func TestHostOtherLimitsFlow(t *testing.T) {
	g, path := chainGraph([]float64{100e6})
	c, _ := NewController(g, newFakeReader(), DefaultParams())
	src := g.Links[path[0]].From
	c.SetHostOther(src, 2e6) // CPU/disk-bound server
	c.Register(&Flow{ID: 1, Path: path})
	tickN(c, 20)
	if got := c.FlowRate(1); math.Abs(got-2e6) > 1e3 {
		t.Fatalf("host-limited rate = %v, want 2e6", got)
	}
	if c.HostOther(src) != 2e6 {
		t.Fatal("HostOther readback")
	}
	if !math.IsInf(c.HostOther(g.Links[path[0]].To), 1) {
		t.Fatal("unset HostOther not +Inf")
	}
}

func TestSendRecvOtherLimits(t *testing.T) {
	g, path := chainGraph([]float64{100e6})
	c, _ := NewController(g, newFakeReader(), DefaultParams())
	c.Register(&Flow{ID: 1, Path: path, SendOther: 3e6})
	c.Register(&Flow{ID: 2, Path: path, RecvOther: 7e6})
	tickN(c, 20)
	if got := c.FlowRate(1); got > 3e6+1 {
		t.Fatalf("SendOther not enforced: %v", got)
	}
	if got := c.FlowRate(2); got > 7e6+1 {
		t.Fatalf("RecvOther not enforced: %v", got)
	}
}

func TestParamsValidation(t *testing.T) {
	g, _ := chainGraph([]float64{1e6})
	bad := []Params{
		{Alpha: 0, Beta: 1, Tau: 0.1, MinRate: 1},
		{Alpha: 1.5, Beta: 1, Tau: 0.1, MinRate: 1},
		{Alpha: 0.9, Beta: -1, Tau: 0.1, MinRate: 1},
		{Alpha: 0.9, Beta: 1, Tau: 0, MinRate: 1},
		{Alpha: 0.9, Beta: 1, Tau: 0.1, MinRate: 0},
	}
	for i, p := range bad {
		if _, err := NewController(g, newFakeReader(), p); err == nil {
			t.Errorf("params %d accepted: %+v", i, p)
		}
	}
}

func TestPathRate(t *testing.T) {
	g, path := chainGraph([]float64{100e6, 10e6, 50e6})
	c, _ := NewController(g, newFakeReader(), DefaultParams())
	tickN(c, 3)
	got := c.PathRate(path)
	want := 0.95 * 10e6
	if math.Abs(got-want)/want > 0.01 {
		t.Fatalf("PathRate = %v, want ≈ %v (bottleneck)", got, want)
	}
}

func TestConservationProperty(t *testing.T) {
	// property: for random flow counts and capacities, after convergence
	// the sum of rates on a single shared link ≈ α·C (full utilisation,
	// no overshoot beyond tolerance).
	f := func(nFlows uint8, capMbRaw uint16) bool {
		n := int(nFlows%16) + 1
		capMb := float64(capMbRaw%900+100) * 1e6
		g, path := chainGraph([]float64{capMb})
		c, _ := NewController(g, newFakeReader(), DefaultParams())
		for i := 0; i < n; i++ {
			c.Register(&Flow{ID: FlowID(i + 1), Path: path})
		}
		tickN(c, 30)
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += c.FlowRate(FlowID(i + 1))
		}
		want := 0.95 * capMb
		return math.Abs(sum-want)/want < 0.02
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestControlMessageAccounting(t *testing.T) {
	g, path := chainGraph([]float64{1e6})
	c, _ := NewController(g, newFakeReader(), DefaultParams())
	c.Register(&Flow{ID: 1, Path: path})
	c.Tick(0)
	if c.ControlMessages == 0 || c.Ticks != 1 {
		t.Fatalf("accounting: msgs=%d ticks=%d", c.ControlMessages, c.Ticks)
	}
}

// BenchmarkTickTreeTopology times one control interval on the fig. 6
// tree: with 200 registered flows, and idle, with none.
func BenchmarkTickTreeTopology(b *testing.B) {
	for _, bc := range []struct {
		name  string
		flows int
	}{{"flows=200", 200}, {"idle", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			tt, err := topology.BuildThreeTier(topology.DefaultThreeTier())
			if err != nil {
				b.Fatal(err)
			}
			routes := topology.ComputeRouting(tt.Graph)
			c, err := NewController(tt.Graph, newFakeReader(), DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < bc.flows; i++ {
				src := tt.Clients[i%len(tt.Clients)]
				dst := tt.Servers[(i*3)%len(tt.Servers)]
				path, err := routes.Path(src, dst, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				if err := c.Register(&Flow{ID: FlowID(i + 1), Path: path}); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Tick(float64(i))
			}
		})
	}
}

// BenchmarkHierarchyUpdate times one fig. 2 aggregation on the fig. 6
// tree: changed, where one host access link's rate moves before every
// Update (its queue reading alternates and the link is recomputed), and
// unchanged, where nothing moves between Updates.
func BenchmarkHierarchyUpdate(b *testing.B) {
	for _, changed := range []bool{true, false} {
		name := "unchanged"
		if changed {
			name = "changed"
		}
		b.Run(name, func(b *testing.B) {
			tt, err := topology.BuildThreeTier(topology.DefaultThreeTier())
			if err != nil {
				b.Fatal(err)
			}
			fr := newFakeReader()
			c, err := NewController(tt.Graph, fr, DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			servers := map[topology.NodeID]bool{}
			for _, s := range tt.Servers {
				servers[s] = true
			}
			h, err := NewHierarchy(c, tt.Graph, servers)
			if err != nil {
				b.Fatal(err)
			}
			c.Tick(0)
			h.Update()
			ls := c.Link(tt.UplinkOf[tt.Servers[0]])
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if changed {
					fr.queues[ls.ID] = float64(i&1) * 1e6
					c.recomputeLink(ls)
				}
				h.Update()
			}
		})
	}
}

func TestDeltaEncodingSavesControlBytes(t *testing.T) {
	g, path := chainGraph([]float64{100e6})
	c, _ := NewController(g, newFakeReader(), DefaultParams())
	c.Register(&Flow{ID: 1, Path: path})
	// converge, then run many quiet intervals: full encoding keeps paying
	// 8 bytes per link per tick, delta encoding goes silent
	tickN(c, 100)
	if c.ControlBytesDelta >= c.ControlBytesFull {
		t.Fatalf("delta %d >= full %d: no savings", c.ControlBytesDelta, c.ControlBytesFull)
	}
	if c.ControlBytesDelta == 0 {
		t.Fatal("delta encoding reported nothing at all")
	}
}

func TestVarintBytes(t *testing.T) {
	cases := []struct {
		delta float64
		want  int64
	}{
		{0, 1}, {1, 1}, {127, 1}, {128, 2}, {1e6, 3}, {-1e6, 3}, {1e18, 8},
	}
	for _, tc := range cases {
		if got := varintBytes(tc.delta); got != tc.want {
			t.Errorf("varintBytes(%v) = %d, want %d", tc.delta, got, tc.want)
		}
	}
}

// TestMinfMatchesMathMin requires minf to return math.Min's bits for every
// pair of special values and for random pairs.
func TestMinfMatchesMathMin(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		1, -1, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64}
	check := func(a, b float64) {
		if got, want := minf(a, b), math.Min(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("minf(%v, %v) = %v (%#x), math.Min %v (%#x)", a, b, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, a := range special {
		for _, b := range special {
			check(a, b)
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		// raw bit patterns cover subnormals, NaN payloads and both signs
		a, b := math.Float64frombits(r.Uint64()), math.Float64frombits(r.Uint64())
		check(a, b)
		check(a, a)
		check(r.NormFloat64(), r.NormFloat64())
	}
}

// TestParamsChangeRecomputesQuietLinks changes the control-law constants
// between ticks, once the idle links are quiet: the next tick must
// recompute them as the reference does, in both modes.
func TestParamsChangeRecomputesQuietLinks(t *testing.T) {
	for _, mode := range []Mode{Full, Simplified} {
		rig := newPlaneRig(t, mode)
		tick := func() {
			rig.now += rig.real.Params.Tau
			rig.real.Tick(rig.now)
			refTick(rig.ref, rig.now)
			rig.realH.Update()
			refUpdate(rig.refH)
			if d := rig.diff(); d != "" {
				t.Fatalf("mode %d, Alpha %v Beta %v: %s", mode, rig.real.Params.Alpha, rig.real.Params.Beta, d)
			}
		}
		rig.reader.queues[0] = 1e6
		for i := 0; i < 3; i++ {
			tick()
		}
		for _, change := range []func(*Params){
			func(p *Params) { p.Alpha = 0.5 },
			func(p *Params) { p.Beta = 0.25 },
		} {
			change(&rig.real.Params)
			change(&rig.ref.Params)
			tick()
			tick()
		}
	}
}
