package topology

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// refRouting is the straightforward route computation the anchor tables
// must reproduce: one BFS per destination and one hop list per
// (destination, node) pair, each list in BFS discovery order.
type refRouting struct {
	g    *Graph
	next [][][]LinkID // next[dst][node]
	dist [][]int      // dist[dst][node]
}

func refComputeRouting(g *Graph) *refRouting {
	n := len(g.Nodes)
	r := &refRouting{g: g, next: make([][][]LinkID, n), dist: make([][]int, n)}
	for dst := 0; dst < n; dst++ {
		r.next[dst] = make([][]LinkID, n)
		dist := make([]int, n)
		for i := range dist {
			dist[i] = math.MaxInt32
		}
		dist[dst] = 0
		queue := []NodeID{NodeID(dst)}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, l := range g.out[v] {
				u := g.Links[l].To
				rev := g.Links[l].Reverse
				if dist[u] > dist[v]+1 {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
					r.next[dst][u] = []LinkID{rev}
				} else if dist[u] == dist[v]+1 {
					r.next[dst][u] = append(r.next[dst][u], rev)
				}
			}
		}
		r.dist[dst] = dist
	}
	return r
}

func (r *refRouting) nextLink(at, dst NodeID, flowHash uint64) (LinkID, error) {
	if at == dst {
		return None, fmt.Errorf("topology: NextLink at destination %d", dst)
	}
	hops := r.next[dst][at]
	if len(hops) == 0 {
		return None, fmt.Errorf("topology: no route %d → %d", at, dst)
	}
	return hops[flowHash%uint64(len(hops))], nil
}

func (r *refRouting) path(src, dst NodeID, flowHash uint64) ([]LinkID, error) {
	if src == dst {
		return nil, nil
	}
	var path []LinkID
	at := src
	for at != dst {
		l, err := r.nextLink(at, dst, flowHash)
		if err != nil {
			return nil, err
		}
		path = append(path, l)
		at = r.g.Links[l].To
		if len(path) > len(r.g.Nodes) {
			return nil, fmt.Errorf("topology: routing loop %d → %d", src, dst)
		}
	}
	return path, nil
}

func (r *refRouting) distance(src, dst NodeID) int {
	if d := r.dist[dst][src]; d != math.MaxInt32 {
		return d
	}
	return -1
}

func (r *refRouting) ecmpWidth(at, dst NodeID) int { return len(r.next[dst][at]) }

// pathHashes are the flow hashes Path is compared at: small ones, and ones
// whose modulo by an ECMP width differs from their low bits.
var pathHashes = []uint64{0, 1, 2, 1<<63 + 5, math.MaxUint64}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkRoutingMatchesReference compares ComputeRouting with the reference
// on every (node, destination) pair: Distance, ECMPWidth, NextLink at every
// hash below the width plus three, and Path, errors included.
func checkRoutingMatchesReference(t *testing.T, g *Graph) {
	t.Helper()
	got, want := ComputeRouting(g), refComputeRouting(g)
	for dst := range g.Nodes {
		for at := range g.Nodes {
			a, d := NodeID(at), NodeID(dst)
			if gd, wd := got.Distance(a, d), want.distance(a, d); gd != wd {
				t.Fatalf("Distance(%d, %d) = %d, reference %d", a, d, gd, wd)
			}
			width := want.ecmpWidth(a, d)
			if gw := got.ECMPWidth(a, d); gw != width {
				t.Fatalf("ECMPWidth(%d, %d) = %d, reference %d", a, d, gw, width)
			}
			for h := uint64(0); h < uint64(width)+3; h++ {
				gl, gerr := got.NextLink(a, d, h)
				wl, werr := want.nextLink(a, d, h)
				if gl != wl || errText(gerr) != errText(werr) {
					t.Fatalf("NextLink(%d, %d, %d) = %d, %v; reference %d, %v", a, d, h, gl, gerr, wl, werr)
				}
			}
			for _, h := range pathHashes {
				gp, gerr := got.Path(a, d, h)
				wp, werr := want.path(a, d, h)
				if !reflect.DeepEqual(gp, wp) || errText(gerr) != errText(werr) {
					t.Fatalf("Path(%d, %d, %d) = %v, %v; reference %v, %v", a, d, h, gp, gerr, wp, werr)
				}
			}
		}
	}
}

// multigraph decodes b into a graph for the routing tests: b[0] sets the
// node count (1 to 16) and each later byte pair adds a cable between two
// nodes, up to 48 cables. Parallel cables, self-loops, disconnected parts
// and single-link nodes on either side of the leaf rule all occur.
func multigraph(b []byte) *Graph {
	g := NewGraph()
	n := 1
	if len(b) > 0 {
		n, b = 1+int(b[0])%16, b[1:]
	}
	for i := 0; i < n; i++ {
		g.AddNode(Switch, fmt.Sprintf("n%d", i), 0)
	}
	for ; len(b) >= 2 && len(g.Links) < 2*48; b = b[2:] {
		g.AddDuplex(NodeID(int(b[0])%n), NodeID(int(b[1])%n), 1e9, 1e-3, 1)
	}
	return g
}

// fabric500x200 is the 500-client / 200-server three-tier fabric of
// scenarios/fluid-100k.json.
func fabric500x200() ThreeTierSpec {
	s := DefaultThreeTier()
	s.Racks, s.ServersPerRack, s.AggSwitches, s.Clients = 25, 8, 5, 500
	s.X, s.K, s.CoreFactor = 5e6, 5, 40
	return s
}

// TestRoutingMatchesReference pins the anchor tables to the per-destination
// BFS on the shipped fabrics, the fat-tree and VL2 shapes, and seeded
// random multigraphs.
func TestRoutingMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec ThreeTierSpec
	}{
		{"fig6", DefaultThreeTier()},
		{"fabric-500x200", fabric500x200()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tt, err := BuildThreeTier(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			checkRoutingMatchesReference(t, tt.Graph)
		})
	}
	for _, k := range []int{2, 4, 6, 8} {
		t.Run(fmt.Sprintf("fattree-k%d", k), func(t *testing.T) {
			g, _, err := FatTree(k, 1e9, 1e-3)
			if err != nil {
				t.Fatal(err)
			}
			checkRoutingMatchesReference(t, g)
		})
	}
	for _, shape := range [][4]int{{4, 2, 2, 4}, {6, 3, 4, 3}} {
		t.Run(fmt.Sprintf("vl2-%d-%d-%d-%d", shape[0], shape[1], shape[2], shape[3]), func(t *testing.T) {
			g, _, err := VL2(shape[0], shape[1], shape[2], shape[3], 1e9, 10e9, 1e-3)
			if err != nil {
				t.Fatal(err)
			}
			checkRoutingMatchesReference(t, g)
		})
	}
	t.Run("multigraphs", func(t *testing.T) {
		graphs := [][]byte{
			nil,       // one node
			{0, 0, 0}, // one node, a self-loop
			{1},       // two nodes, no link
			{1, 0, 1}, // two nodes, one link: both stay anchors
			{1, 0, 1, 1, 0},
			{2, 0, 1, 1, 2}, // a chain: both ends are leaves
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 400; i++ {
			b := make([]byte, 1+2*rng.Intn(24))
			rng.Read(b)
			graphs = append(graphs, b)
		}
		leaves := 0
		for _, b := range graphs {
			g := multigraph(b)
			for d := range g.Nodes {
				if _, leaf := leafNeighbour(g, NodeID(d)); leaf {
					leaves++
				}
			}
			checkRoutingMatchesReference(t, g)
		}
		if leaves < len(graphs) {
			t.Fatalf("%d leaves in %d graphs: the corpus barely exercises the leaf rule", leaves, len(graphs))
		}
	})
}

// FuzzRouting checks the anchor tables against the per-destination BFS on
// fuzzed multigraphs.
func FuzzRouting(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 1})
	f.Add([]byte{2, 0, 1, 1, 2})
	f.Add([]byte{5, 0, 1, 0, 2, 0, 3, 3, 4, 3, 5, 5, 5})
	f.Add([]byte{4, 0, 1, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		checkRoutingMatchesReference(t, multigraph(b))
	})
}

// TestComputeRoutingAllocsIndependentOfHosts pins that hosts add no route
// tables: building routes on the fig. 6 tree and on the 500/200 fabric
// costs the same number of allocations.
func TestComputeRoutingAllocsIndependentOfHosts(t *testing.T) {
	allocs := func(spec ThreeTierSpec) float64 {
		tt, err := BuildThreeTier(spec)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() { ComputeRouting(tt.Graph) })
	}
	fig6, fabric := allocs(DefaultThreeTier()), allocs(fabric500x200())
	if fig6 != fabric {
		t.Errorf("ComputeRouting allocates %v times on fig6, %v on the 500/200 fabric", fig6, fabric)
	}
}

func BenchmarkComputeRouting(b *testing.B) {
	for _, bc := range []struct {
		name string
		spec ThreeTierSpec
	}{
		{"fig6", DefaultThreeTier()},
		{"fabric-500x200", fabric500x200()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tt, err := BuildThreeTier(bc.spec)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				routes = ComputeRouting(tt.Graph)
			}
		})
	}
}

// routes keeps BenchmarkComputeRouting's result live.
var routes *Routing
