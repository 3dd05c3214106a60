package topology

import (
	"math"
	"testing"
	"testing/quick"
)

func buildDefault(t *testing.T) *ThreeTier {
	t.Helper()
	tt, err := BuildThreeTier(DefaultThreeTier())
	if err != nil {
		t.Fatal(err)
	}
	return tt
}

func TestThreeTierShape(t *testing.T) {
	tt := buildDefault(t)
	spec := tt.Spec
	if got := len(tt.Servers); got != spec.Racks*spec.ServersPerRack {
		t.Fatalf("servers = %d", got)
	}
	if got := len(tt.Clients); got != spec.Clients {
		t.Fatalf("clients = %d", got)
	}
	if got := len(tt.Edges); got != spec.Racks {
		t.Fatalf("edges = %d", got)
	}
	if got := len(tt.Aggs); got != spec.AggSwitches {
		t.Fatalf("aggs = %d", got)
	}
	if tt.Graph.MaxLevel() != 4 {
		t.Fatalf("max level = %d (client WAN links are level 4)", tt.Graph.MaxLevel())
	}
}

func TestThreeTierLevelsAndCapacities(t *testing.T) {
	tt := buildDefault(t)
	g := tt.Graph
	spec := tt.Spec
	for _, l := range g.Links {
		switch l.Level {
		case 1:
			if l.Capacity != spec.X {
				t.Fatalf("server link capacity %v, want X=%v", l.Capacity, spec.X)
			}
		case 2:
			if l.Capacity != spec.K*spec.X {
				t.Fatalf("rack-agg capacity %v, want KX=%v", l.Capacity, spec.K*spec.X)
			}
		case 3:
			if l.Capacity != spec.CoreFactor*spec.X {
				t.Fatalf("agg-core capacity %v, want 6X=%v", l.Capacity, spec.CoreFactor*spec.X)
			}
		case 4:
			if l.Delay != spec.WANDelay {
				t.Fatalf("WAN delay %v", l.Delay)
			}
		default:
			t.Fatalf("unexpected link level %d", l.Level)
		}
	}
}

func TestThreeTierParentChain(t *testing.T) {
	tt := buildDefault(t)
	for _, e := range tt.Edges {
		agg := tt.Parent[e]
		if tt.Graph.Nodes[agg].Level != 2 {
			t.Fatalf("edge parent level %d", tt.Graph.Nodes[agg].Level)
		}
		if tt.Parent[agg] != tt.Core {
			t.Fatal("agg parent is not core")
		}
	}
	if tt.Parent[tt.Core] != None {
		t.Fatal("core has a parent")
	}
}

func TestThreeTierValidateSpec(t *testing.T) {
	bad := DefaultThreeTier()
	bad.Racks = 0
	if _, err := BuildThreeTier(bad); err == nil {
		t.Fatal("zero racks accepted")
	}
	bad = DefaultThreeTier()
	bad.X = -1
	if _, err := BuildThreeTier(bad); err == nil {
		t.Fatal("negative X accepted")
	}
	bad = DefaultThreeTier()
	bad.K = 0
	if _, err := BuildThreeTier(bad); err == nil {
		t.Fatal("zero K accepted")
	}
}

// TestThreeTierValidateRejectsNonFinite: NaN passes every `x <= 0` test,
// so each float field needs its own rejection of NaN and ±Inf; so do the
// tier capacities two finite factors multiply to.
func TestThreeTierValidateRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name string
		set  func(*ThreeTierSpec, float64)
	}{
		{"X", func(s *ThreeTierSpec, v float64) { s.X = v }},
		{"K", func(s *ThreeTierSpec, v float64) { s.K = v }},
		{"CoreFactor", func(s *ThreeTierSpec, v float64) { s.CoreFactor = v }},
		{"DCDelay", func(s *ThreeTierSpec, v float64) { s.DCDelay = v }},
		{"WANDelay", func(s *ThreeTierSpec, v float64) { s.WANDelay = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			s := DefaultThreeTier()
			f.set(&s, v)
			if err := s.Validate(); err == nil {
				t.Errorf("%s = %v accepted", f.name, v)
			}
			if _, err := BuildThreeTier(s); err == nil {
				t.Errorf("BuildThreeTier built %s = %v", f.name, v)
			}
		}
	}
	huge := DefaultThreeTier()
	huge.X, huge.K = math.MaxFloat64, 2
	if err := huge.Validate(); err == nil {
		t.Error("K*X overflowing to +Inf accepted")
	}
	huge.K, huge.CoreFactor = 1, 2
	if err := huge.Validate(); err == nil {
		t.Error("CoreFactor*X overflowing to +Inf accepted")
	}
}

func TestReversePairing(t *testing.T) {
	tt := buildDefault(t)
	g := tt.Graph
	for _, l := range g.Links {
		r := g.Links[l.Reverse]
		if r.Reverse != l.ID || r.From != l.To || r.To != l.From {
			t.Fatalf("link %d reverse pairing broken", l.ID)
		}
		if r.Capacity != l.Capacity || r.Delay != l.Delay || r.Level != l.Level {
			t.Fatalf("link %d reverse attributes differ", l.ID)
		}
	}
}

func TestRoutingTreePaths(t *testing.T) {
	tt := buildDefault(t)
	r := ComputeRouting(tt.Graph)

	// same-rack servers: host → tor → host = 2 hops
	s0, s1 := tt.Servers[0], tt.Servers[1]
	if d := r.Distance(s0, s1); d != 2 {
		t.Fatalf("same-rack distance = %d", d)
	}
	// cross-agg servers: host→tor→agg→core→agg→tor→host = 6 hops
	sA := tt.Servers[0]                      // rack 0 → agg 0
	sB := tt.Servers[tt.Spec.ServersPerRack] // rack 1 → agg 1
	if tt.RackOf[sA]%2 == tt.RackOf[sB]%2 {
		t.Fatal("test assumption broken: racks on same agg")
	}
	if d := r.Distance(sA, sB); d != 6 {
		t.Fatalf("cross-agg distance = %d", d)
	}
	// client to server: client→core→agg→tor→host = 4 hops
	if d := r.Distance(tt.Clients[0], tt.Servers[0]); d != 4 {
		t.Fatalf("client-server distance = %d", d)
	}
}

func TestRoutingPathConsistency(t *testing.T) {
	tt := buildDefault(t)
	g := tt.Graph
	r := ComputeRouting(g)
	hosts := g.Hosts()
	for _, src := range hosts[:10] {
		for _, dst := range hosts[len(hosts)-10:] {
			if src == dst {
				continue
			}
			path, err := r.Path(src, dst, 12345)
			if err != nil {
				t.Fatal(err)
			}
			at := src
			for _, l := range path {
				if g.Links[l].From != at {
					t.Fatalf("path discontinuous at link %d", l)
				}
				at = g.Links[l].To
			}
			if at != dst {
				t.Fatalf("path ends at %d, want %d", at, dst)
			}
			if len(path) != r.Distance(src, dst) {
				t.Fatalf("path len %d != distance %d", len(path), r.Distance(src, dst))
			}
		}
	}
}

func TestRoutingSelfPath(t *testing.T) {
	tt := buildDefault(t)
	r := ComputeRouting(tt.Graph)
	p, err := r.Path(tt.Servers[0], tt.Servers[0], 0)
	if err != nil || p != nil {
		t.Fatalf("self path = %v, %v", p, err)
	}
	if _, err := r.NextLink(tt.Servers[0], tt.Servers[0], 0); err == nil {
		t.Fatal("NextLink at destination should error")
	}
}

func TestRTTSymmetric(t *testing.T) {
	tt := buildDefault(t)
	r := ComputeRouting(tt.Graph)
	a, b := tt.Clients[0], tt.Servers[0]
	rtt, err := r.RTT(a, b, 7)
	if err != nil {
		t.Fatal(err)
	}
	// client→core (50ms) + core→agg + agg→tor + tor→host (3×10ms) both ways
	want := 2 * (tt.Spec.WANDelay + 3*tt.Spec.DCDelay)
	if diff := rtt - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("RTT = %v, want %v", rtt, want)
	}
}

func TestFatTreeShape(t *testing.T) {
	g, hosts, err := FatTree(4, 1e9, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 16 {
		t.Fatalf("k=4 fat-tree hosts = %d, want 16", len(hosts))
	}
	// 4 cores + 4 pods × (2 agg + 2 edge) = 20 switches
	if got := len(g.Switches()); got != 20 {
		t.Fatalf("switches = %d, want 20", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFatTreeECMP(t *testing.T) {
	g, hosts, err := FatTree(4, 1e9, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	r := ComputeRouting(g)
	// hosts in different pods have multiple equal-cost paths; the edge
	// switch should see 2 next-hop choices (2 aggs per pod).
	src, dst := hosts[0], hosts[len(hosts)-1]
	path, err := r.Path(src, dst, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 6 {
		t.Fatalf("cross-pod path length %d, want 6", len(path))
	}
	edgeSwitch := g.Links[path[0]].To
	if w := r.ECMPWidth(edgeSwitch, dst); w != 2 {
		t.Fatalf("ECMP width at edge = %d, want 2", w)
	}
}

func TestFatTreeHashSpreadsPaths(t *testing.T) {
	g, hosts, err := FatTree(4, 1e9, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	r := ComputeRouting(g)
	src, dst := hosts[0], hosts[15]
	seen := map[LinkID]bool{}
	for h := uint64(0); h < 64; h++ {
		p, err := r.Path(src, dst, h)
		if err != nil {
			t.Fatal(err)
		}
		seen[p[1]] = true // link chosen at the edge switch
	}
	if len(seen) < 2 {
		t.Fatalf("hash never spread across ECMP paths: %v", seen)
	}
}

func TestFatTreeOddKRejected(t *testing.T) {
	if _, _, err := FatTree(3, 1e9, 1e-3); err == nil {
		t.Fatal("odd k accepted")
	}
	if _, _, err := FatTree(0, 1e9, 1e-3); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestVL2Shape(t *testing.T) {
	g, hosts, err := VL2(4, 2, 2, 5, 1e9, 10e9, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 20 {
		t.Fatalf("hosts = %d", len(hosts))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	r := ComputeRouting(g)
	for _, h := range hosts {
		if d := r.Distance(hosts[0], h); h != hosts[0] && d < 2 {
			t.Fatalf("distance %d to host %d", d, h)
		}
	}
}

func TestVL2BadShape(t *testing.T) {
	if _, _, err := VL2(0, 2, 2, 5, 1e9, 10e9, 1e-3); err == nil {
		t.Fatal("0 tors accepted")
	}
	if _, _, err := VL2(4, 1, 2, 5, 1e9, 10e9, 1e-3); err == nil {
		t.Fatal("1 agg accepted (dual-homing needs 2)")
	}
}

func TestGraphValidateCatchesDisconnect(t *testing.T) {
	g := NewGraph()
	g.AddNode(Host, "a", 0)
	g.AddNode(Host, "b", 0)
	if err := g.Validate(); err == nil {
		t.Fatal("disconnected graph validated")
	}
}

func TestAddDuplexPanics(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(Host, "a", 0)
	b := g.AddNode(Host, "b", 0)
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive capacity accepted")
		}
	}()
	g.AddDuplex(a, b, 0, 1e-3, 1)
}

func TestBisectionCapacity(t *testing.T) {
	tt := buildDefault(t)
	want := float64(tt.Spec.AggSwitches) * tt.Spec.CoreFactor * tt.Spec.X
	if got := tt.Graph.BisectionCapacity(3); got != want {
		t.Fatalf("core bisection = %v, want %v", got, want)
	}
}

func TestPathHelpers(t *testing.T) {
	tt := buildDefault(t)
	r := ComputeRouting(tt.Graph)
	p, _ := r.Path(tt.Clients[0], tt.Servers[0], 0)
	if d := tt.Graph.PathDelay(p); d <= 0 {
		t.Fatalf("path delay %v", d)
	}
	if c := tt.Graph.PathMinCapacity(p); c != tt.Spec.X {
		t.Fatalf("bottleneck %v, want X", c)
	}
}

func TestRoutingPropertyRandomPairs(t *testing.T) {
	tt := buildDefault(t)
	g := tt.Graph
	r := ComputeRouting(g)
	hosts := g.Hosts()
	f := func(i, j uint16, hash uint64) bool {
		src := hosts[int(i)%len(hosts)]
		dst := hosts[int(j)%len(hosts)]
		if src == dst {
			return true
		}
		p, err := r.Path(src, dst, hash)
		if err != nil || len(p) == 0 {
			return false
		}
		// no repeated links (simple path)
		seen := map[LinkID]bool{}
		for _, l := range p {
			if seen[l] {
				return false
			}
			seen[l] = true
		}
		return g.Links[p[len(p)-1]].To == dst
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
