package ratealloc

import (
	"math"
	"testing"

	"repro/internal/topology"
)

func buildTree(t *testing.T) (*topology.ThreeTier, *Controller, *Hierarchy, *fakeReader) {
	t.Helper()
	tt, err := topology.BuildThreeTier(topology.DefaultThreeTier())
	if err != nil {
		t.Fatal(err)
	}
	fr := newFakeReader()
	c, err := NewController(tt.Graph, fr, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	servers := map[topology.NodeID]bool{}
	for _, s := range tt.Servers {
		servers[s] = true
	}
	h, err := NewHierarchy(c, tt.Graph, servers)
	if err != nil {
		t.Fatal(err)
	}
	return tt, c, h, fr
}

func TestHierarchyStructure(t *testing.T) {
	tt, _, h, _ := buildTree(t)
	if h.Root().Switch != tt.Core {
		t.Fatalf("root = %d, want core %d", h.Root().Switch, tt.Core)
	}
	if h.MaxLevel() != 3 {
		t.Fatalf("hmax = %d", h.MaxLevel())
	}
	if got := len(h.Root().Children); got != tt.Spec.AggSwitches {
		t.Fatalf("root children = %d", got)
	}
	for _, agg := range h.Root().Children {
		if agg.Level != 2 {
			t.Fatalf("agg level = %d", agg.Level)
		}
		for _, tor := range agg.Children {
			if tor.Level != 1 {
				t.Fatalf("tor level = %d", tor.Level)
			}
			if len(tor.RMs) != tt.Spec.ServersPerRack {
				t.Fatalf("rack servers = %d", len(tor.RMs))
			}
		}
	}
	// clients hang off the core as non-server RMs
	clientRMs := 0
	for _, rm := range h.Root().RMs {
		if !rm.IsServer {
			clientRMs++
		}
	}
	if clientRMs != tt.Spec.Clients {
		t.Fatalf("client RMs at core = %d", clientRMs)
	}
}

func TestBestServerSelectionIdle(t *testing.T) {
	tt, c, h, _ := buildTree(t)
	c.Tick(0)
	h.Update()
	root := h.Root()
	// idle fabric: every server advertises α·X up and down; best rate
	// equals αX and the chosen node must be a server
	wantRate := 0.95 * tt.Spec.X
	for _, sr := range []ServerRate{root.BestUp, root.BestDown, root.BestMin} {
		if math.Abs(sr.Rate-wantRate)/wantRate > 0.01 {
			t.Fatalf("best rate = %v, want ≈ %v", sr.Rate, wantRate)
		}
		if !isServer(tt, sr.Server) {
			t.Fatalf("selected %d is not a block server", sr.Server)
		}
	}
}

func isServer(tt *topology.ThreeTier, n topology.NodeID) bool {
	for _, s := range tt.Servers {
		if s == n {
			return true
		}
	}
	return false
}

func TestBestServerAvoidsLoaded(t *testing.T) {
	tt, c, h, _ := buildTree(t)
	// load server 0's downlink with 9 flows
	target := tt.Servers[0]
	down := tt.Graph.Links[tt.UplinkOf[target]].Reverse
	for i := 0; i < 9; i++ {
		if err := c.Register(&Flow{ID: FlowID(i + 1), Path: []topology.LinkID{down}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		c.Tick(0)
	}
	h.Update()
	if h.Root().BestDown.Server == target {
		t.Fatal("selection chose the loaded server")
	}
	// the loaded server's own advertised downlink must be ~1/9 of idle
	rm := h.RMFor(target)
	idle := 0.95 * tt.Spec.X
	if rm.DownHat > idle/5 {
		t.Fatalf("loaded server DownHat = %v, want ≲ %v", rm.DownHat, idle/9)
	}
}

func TestHostOtherCapsServerMetric(t *testing.T) {
	tt, c, h, _ := buildTree(t)
	// every server CPU-limited except one fast server
	for _, s := range tt.Servers {
		c.SetHostOther(s, 1e6)
	}
	fast := tt.Servers[7]
	c.SetHostOther(fast, 1e9)
	c.Tick(0)
	h.Update()
	if got := h.Root().BestUp.Server; got != fast {
		t.Fatalf("BestUp = %d, want CPU-unconstrained server %d", got, fast)
	}
	if h.RMFor(tt.Servers[0]).UpHat != 1e6 {
		t.Fatalf("UpHat = %v, want host limit 1e6", h.RMFor(tt.Servers[0]).UpHat)
	}
}

func TestRackLevelQuery(t *testing.T) {
	tt, c, h, _ := buildTree(t)
	c.Tick(0)
	h.Update()
	// the RA at level 1 of server 0's rack must select within that rack
	ra := h.AncestorAt(tt.Servers[0], 1)
	if ra == nil {
		t.Fatal("no level-1 ancestor")
	}
	if tt.RackOf[ra.BestDown.Server] != tt.RackOf[tt.Servers[0]] {
		t.Fatal("rack-level best server outside the rack")
	}
}

func TestSubtreeBestIncludesOwnUplink(t *testing.T) {
	tt, c, h, _ := buildTree(t)
	// congest rack 0's uplink (tor→agg): rack 0's advertised best-up from
	// the root's perspective must fall below an uncongested rack's.
	tor0 := tt.Edges[0]
	var torUp topology.LinkID = topology.None
	for _, l := range tt.Graph.Out(tor0) {
		if tt.Graph.Nodes[tt.Graph.Links[l].To].Kind == topology.Switch {
			torUp = l
		}
	}
	if torUp == topology.None {
		t.Fatal("no tor uplink found")
	}
	for i := 0; i < 50; i++ {
		c.Register(&Flow{ID: FlowID(i + 1), Path: []topology.LinkID{torUp}})
	}
	for i := 0; i < 20; i++ {
		c.Tick(0)
	}
	h.Update()
	ra0 := h.RAFor(tor0)
	// fig. 2 rule: the rack's aggregate is min(best server, rack uplink R)
	if ra0.BestUp.Rate > c.Link(torUp).R+1 {
		t.Fatalf("rack aggregate %v ignores congested uplink %v", ra0.BestUp.Rate, c.Link(torUp).R)
	}
	if best := h.Root().BestUp.Server; tt.RackOf[best] == 0 {
		t.Fatal("root still selects the congested rack for reads")
	}
}

func TestRMLevelVectorsMonotone(t *testing.T) {
	tt, c, h, _ := buildTree(t)
	// add cross-tree load so upper links are slower than leaf links
	r := topology.ComputeRouting(tt.Graph)
	id := FlowID(1)
	for i := 0; i < 10; i++ {
		src := tt.Servers[i%len(tt.Servers)]
		dst := tt.Clients[i%len(tt.Clients)]
		path, err := r.Path(src, dst, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		c.Register(&Flow{ID: id, Path: path})
		id++
	}
	for i := 0; i < 20; i++ {
		c.Tick(0)
	}
	h.Update()
	for _, s := range tt.Servers {
		rm := h.RMFor(s)
		for lvl := 2; lvl <= h.MaxLevel(); lvl++ {
			if rm.UpToLevel[lvl] > rm.UpToLevel[lvl-1]+1e-9 {
				t.Fatalf("UpToLevel not non-increasing: %v", rm.UpToLevel)
			}
			if rm.DownFromLevel[lvl] > rm.DownFromLevel[lvl-1]+1e-9 {
				t.Fatalf("DownFromLevel not non-increasing: %v", rm.DownFromLevel)
			}
		}
	}
}

func TestCommonLevel(t *testing.T) {
	tt, _, h, _ := buildTree(t)
	sameRack := h.CommonLevel(tt.Servers[0], tt.Servers[1])
	if sameRack != 1 {
		t.Fatalf("same-rack common level = %d, want 1", sameRack)
	}
	crossAgg := h.CommonLevel(tt.Servers[0], tt.Servers[tt.Spec.ServersPerRack])
	if crossAgg != 3 {
		t.Fatalf("cross-agg common level = %d, want 3 (core)", crossAgg)
	}
	// racks 0 and 2 share agg 0 (round-robin assignment)
	sameAgg := h.CommonLevel(tt.Servers[0], tt.Servers[2*tt.Spec.ServersPerRack])
	if sameAgg != 2 {
		t.Fatalf("same-agg common level = %d, want 2", sameAgg)
	}
	clientServer := h.CommonLevel(tt.Clients[0], tt.Servers[0])
	if clientServer != 3 {
		t.Fatalf("client-server common level = %d, want 3", clientServer)
	}
}

func TestEachServerVisitsAll(t *testing.T) {
	tt, _, h, _ := buildTree(t)
	count := 0
	h.Root().EachServer(func(rm *RM) { count++ })
	if count != len(tt.Servers) {
		t.Fatalf("EachServer visited %d, want %d", count, len(tt.Servers))
	}
}

// TestHierarchyChildOrderIsStable builds the fig. 6 hierarchy repeatedly:
// every RA must list its children in ascending switch order, so when all
// servers advertise the same rate the same server wins the tie each time.
func TestHierarchyChildOrderIsStable(t *testing.T) {
	winners := map[topology.NodeID]bool{}
	for i := 0; i < 20; i++ {
		_, c, h, _ := buildTree(t)
		var walk func(ra *RA)
		walk = func(ra *RA) {
			for j, ch := range ra.Children {
				if j > 0 && ch.Switch <= ra.Children[j-1].Switch {
					t.Fatalf("build %d: switch %d lists child %d after %d", i, ra.Switch, ch.Switch, ra.Children[j-1].Switch)
				}
				walk(ch)
			}
		}
		walk(h.Root())
		c.Tick(0)
		h.Update()
		winners[h.Root().BestMin.Server] = true
	}
	if len(winners) != 1 {
		t.Fatalf("an equal-rate tie went to %d different servers over 20 builds", len(winners))
	}
}

func TestHierarchyRejectsNonTree(t *testing.T) {
	g, _, err := topology.FatTree(4, 1e9, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := NewController(g, newFakeReader(), DefaultParams())
	if _, err := NewHierarchy(c, g, nil); err == nil {
		t.Fatal("fat-tree accepted as hierarchy (switches have multiple parents)")
	}
}

func TestInteractiveMetricUsesMinOfUpDown(t *testing.T) {
	tt, c, h, _ := buildTree(t)
	// overload server 3's uplink only: its min(up,down) collapses while
	// its downlink stays high — BestMin must avoid it, BestDown may not.
	target := tt.Servers[3]
	up := tt.UplinkOf[target]
	for i := 0; i < 20; i++ {
		c.Register(&Flow{ID: FlowID(i + 1), Path: []topology.LinkID{up}})
	}
	for i := 0; i < 20; i++ {
		c.Tick(0)
	}
	h.Update()
	if h.Root().BestMin.Server == target {
		t.Fatal("interactive selection picked the upload-saturated server")
	}
	rm := h.RMFor(target)
	if min := math.Min(rm.UpHat, rm.DownHat); min > 0.95*tt.Spec.X/10 {
		t.Fatalf("saturated server min metric = %v", min)
	}
}
