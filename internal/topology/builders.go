package topology

import (
	"fmt"
	"math"
)

// ThreeTierSpec parameterises the paper's experimental topology (fig. 6):
// a three-tier datacenter tree (block servers → ToR/edge → aggregation →
// core) plus external user clients reaching the core over high-latency
// access links. The paper scales link capacities from a base bandwidth X
// with a bandwidth factor K (K < 6) on mid-tier links and a 6X core tier,
// showing SCDA is not restricted to equal-bandwidth fabrics.
type ThreeTierSpec struct {
	// Racks is the number of edge (ToR) switches.
	Racks int
	// ServersPerRack is the number of block servers per ToR.
	ServersPerRack int
	// AggSwitches is the number of aggregation switches; racks are
	// distributed round-robin among them. Must divide into Racks usefully
	// but any positive count works.
	AggSwitches int
	// Clients is the number of external user clients (UCLs) attached to
	// the core over WAN links.
	Clients int

	// X is the base bandwidth in bits/sec (paper: 500 Mb/s or 200 Mb/s).
	X float64
	// K is the bandwidth factor for rack-to-aggregation links (paper: 1 or 3).
	K float64
	// CoreFactor scales aggregation-to-core links (paper's 6X tier).
	CoreFactor float64

	// DCDelay is the one-way delay of every intra-datacenter link
	// (paper: 10 ms).
	DCDelay float64
	// WANDelay is the one-way delay of client access links (paper: 50 ms).
	WANDelay float64
}

// DefaultThreeTier returns the fig. 6 topology at the paper's video-trace
// scale: 20 servers (the paper scales the YouTube trace to 20 of the 2138
// servers), X = 500 Mb/s, K = 3.
func DefaultThreeTier() ThreeTierSpec {
	return ThreeTierSpec{
		Racks:          4,
		ServersPerRack: 5,
		AggSwitches:    2,
		Clients:        40,
		X:              500e6,
		K:              3,
		CoreFactor:     6,
		DCDelay:        10e-3,
		WANDelay:       50e-3,
	}
}

// Validate reports whether BuildThreeTier accepts the spec, checking the
// parameters arithmetically instead of building the graph, so its cost
// does not grow with the fabric. Every count but Clients must be positive;
// X, K and CoreFactor must be finite and positive, and so must the tier
// capacities they multiply to (a product of tiny factors can underflow to
// zero, one of huge factors overflow to +Inf); both delays must be finite
// and non-negative. That is what Graph.AddDuplex accepts, minus the NaN
// and infinite values it lets through and a run cannot use.
func (s ThreeTierSpec) Validate() error {
	switch {
	case s.Racks <= 0:
		return fmt.Errorf("topology: Racks = %d", s.Racks)
	case s.ServersPerRack <= 0:
		return fmt.Errorf("topology: ServersPerRack = %d", s.ServersPerRack)
	case s.AggSwitches <= 0:
		return fmt.Errorf("topology: AggSwitches = %d", s.AggSwitches)
	case s.Clients < 0:
		return fmt.Errorf("topology: Clients = %d", s.Clients)
	case !positiveFinite(s.X):
		return fmt.Errorf("topology: X = %v", s.X)
	case !positiveFinite(s.K):
		return fmt.Errorf("topology: K = %v", s.K)
	case !positiveFinite(s.CoreFactor):
		return fmt.Errorf("topology: CoreFactor = %v", s.CoreFactor)
	case !positiveFinite(s.K * s.X):
		return fmt.Errorf("topology: K*X = %v (K = %v, X = %v)", s.K*s.X, s.K, s.X)
	case !positiveFinite(s.CoreFactor * s.X):
		return fmt.Errorf("topology: CoreFactor*X = %v (CoreFactor = %v, X = %v)", s.CoreFactor*s.X, s.CoreFactor, s.X)
	case !(s.DCDelay >= 0) || math.IsInf(s.DCDelay, 1):
		return fmt.Errorf("topology: DCDelay = %v", s.DCDelay)
	case !(s.WANDelay >= 0) || math.IsInf(s.WANDelay, 1):
		return fmt.Errorf("topology: WANDelay = %v", s.WANDelay)
	}
	return nil
}

// positiveFinite reports whether v is a usable capacity or factor: NaN
// fails the comparison, so it is rejected with zero, negatives and ±Inf.
func positiveFinite(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// ThreeTier is the built fig. 6 topology with the node roles the cluster
// layer needs.
type ThreeTier struct {
	Graph *Graph
	Spec  ThreeTierSpec

	Core    NodeID
	Aggs    []NodeID
	Edges   []NodeID
	Servers []NodeID // block servers, level 0
	Clients []NodeID // external UCLs

	// RackOf maps each server to its rack (edge switch index).
	RackOf map[NodeID]int
	// UplinkOf maps each host (server or client) to its host→switch link.
	UplinkOf map[NodeID]LinkID
	// Parent maps each switch to its parent switch (core maps to None).
	Parent map[NodeID]NodeID
}

// BuildThreeTier constructs the fig. 6 tree. Levels follow the paper: hosts
// at level 0, host links level 1, rack-agg links level 2, agg-core links
// level 3 (hmax = 3); client WAN links are level 4, outside the DC tree.
func BuildThreeTier(spec ThreeTierSpec) (*ThreeTier, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	g := NewGraph()
	t := &ThreeTier{
		Graph:    g,
		Spec:     spec,
		RackOf:   make(map[NodeID]int),
		UplinkOf: make(map[NodeID]LinkID),
		Parent:   make(map[NodeID]NodeID),
	}

	t.Core = g.AddNode(Switch, "core", 3)
	t.Parent[t.Core] = None

	for a := 0; a < spec.AggSwitches; a++ {
		agg := g.AddNode(Switch, fmt.Sprintf("agg%d", a), 2)
		t.Aggs = append(t.Aggs, agg)
		t.Parent[agg] = t.Core
		g.AddDuplex(agg, t.Core, spec.CoreFactor*spec.X, spec.DCDelay, 3)
	}

	for r := 0; r < spec.Racks; r++ {
		edge := g.AddNode(Switch, fmt.Sprintf("tor%d", r), 1)
		t.Edges = append(t.Edges, edge)
		agg := t.Aggs[r%spec.AggSwitches]
		t.Parent[edge] = agg
		g.AddDuplex(edge, agg, spec.K*spec.X, spec.DCDelay, 2)

		for sv := 0; sv < spec.ServersPerRack; sv++ {
			srv := g.AddNode(Host, fmt.Sprintf("bs%d-%d", r, sv), 0)
			t.Servers = append(t.Servers, srv)
			t.RackOf[srv] = r
			up := g.AddDuplex(srv, edge, spec.X, spec.DCDelay, 1)
			t.UplinkOf[srv] = up
		}
	}

	for c := 0; c < spec.Clients; c++ {
		ucl := g.AddNode(Host, fmt.Sprintf("ucl%d", c), 0)
		t.Clients = append(t.Clients, ucl)
		up := g.AddDuplex(ucl, t.Core, spec.X, spec.WANDelay, 4)
		t.UplinkOf[ucl] = up
	}

	if err := g.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// FatTree builds a k-ary fat-tree (Al-Fares et al., the paper's ref. [1]):
// k pods of k/2 edge and k/2 aggregation switches, (k/2)² core switches,
// and (k/2)² hosts per pod, all links at the given capacity. Used for the
// section IX general-topology experiments. k must be even and >= 2.
func FatTree(k int, capacity, delay float64) (*Graph, []NodeID, error) {
	if k < 2 || k%2 != 0 {
		return nil, nil, fmt.Errorf("topology: fat-tree k must be even and >= 2, got %d", k)
	}
	g := NewGraph()
	half := k / 2
	cores := make([]NodeID, half*half)
	for i := range cores {
		cores[i] = g.AddNode(Switch, fmt.Sprintf("core%d", i), 3)
	}
	var hosts []NodeID
	for p := 0; p < k; p++ {
		aggs := make([]NodeID, half)
		edges := make([]NodeID, half)
		for i := 0; i < half; i++ {
			aggs[i] = g.AddNode(Switch, fmt.Sprintf("p%d-agg%d", p, i), 2)
			edges[i] = g.AddNode(Switch, fmt.Sprintf("p%d-edge%d", p, i), 1)
		}
		for i, agg := range aggs {
			// agg i in each pod connects to cores [i*half, (i+1)*half)
			for j := 0; j < half; j++ {
				g.AddDuplex(agg, cores[i*half+j], capacity, delay, 3)
			}
			for _, e := range edges {
				g.AddDuplex(e, agg, capacity, delay, 2)
			}
		}
		for i, e := range edges {
			for h := 0; h < half; h++ {
				host := g.AddNode(Host, fmt.Sprintf("p%d-e%d-h%d", p, i, h), 0)
				hosts = append(hosts, host)
				g.AddDuplex(host, e, capacity, delay, 1)
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	return g, hosts, nil
}

// VL2 builds a VL2-style Clos fabric (Greenberg et al., the paper's ref.
// [12]): ToR switches each dual-homed to two aggregation switches, and a
// complete bipartite mesh between aggregation and intermediate switches.
// hostCap is the server uplink capacity; fabricCap the switch-to-switch
// capacity (VL2 uses 1G/10G).
func VL2(tors, aggs, intermediates, hostsPerTor int, hostCap, fabricCap, delay float64) (*Graph, []NodeID, error) {
	if tors <= 0 || aggs < 2 || intermediates <= 0 || hostsPerTor <= 0 {
		return nil, nil, fmt.Errorf("topology: invalid VL2 shape %d/%d/%d/%d", tors, aggs, intermediates, hostsPerTor)
	}
	g := NewGraph()
	ints := make([]NodeID, intermediates)
	for i := range ints {
		ints[i] = g.AddNode(Switch, fmt.Sprintf("int%d", i), 3)
	}
	ag := make([]NodeID, aggs)
	for i := range ag {
		ag[i] = g.AddNode(Switch, fmt.Sprintf("agg%d", i), 2)
		for _, in := range ints {
			g.AddDuplex(ag[i], in, fabricCap, delay, 3)
		}
	}
	var hosts []NodeID
	for t := 0; t < tors; t++ {
		tor := g.AddNode(Switch, fmt.Sprintf("tor%d", t), 1)
		g.AddDuplex(tor, ag[t%aggs], fabricCap, delay, 2)
		g.AddDuplex(tor, ag[(t+1)%aggs], fabricCap, delay, 2)
		for h := 0; h < hostsPerTor; h++ {
			host := g.AddNode(Host, fmt.Sprintf("t%d-h%d", t, h), 0)
			hosts = append(hosts, host)
			g.AddDuplex(host, tor, hostCap, delay, 1)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	return g, hosts, nil
}
