package topology

import (
	"fmt"
	"math"
)

// Routing holds destination-based next-hop tables with equal-cost
// multipath sets, computed by breadth-first search. ECMP next-hop choice is
// by flow hash, matching the per-flow ECMP the paper's baselines (VL2,
// Hedera) rely on.
//
// Tables exist per anchor, not per node. A leaf is a node whose single
// link leads to a node with more than one link, as every host the
// three-tier, fat-tree and VL2 builders make is; every other node is an
// anchor and owns a table. Toward a leaf, its neighbour answers with its
// one link to the leaf, and every other node follows the neighbour's table
// one hop further. So memory is O(S·N), where N counts the nodes and S the
// anchors: the nodes that do not have exactly one link, plus both ends of
// any two-node component. ECMP order is preserved (see ComputeRouting).
type Routing struct {
	g *Graph
	// route[dst] names the table that answers for dst.
	route []dstRoute
	// Table t covers the index range [t·N, (t+1)·N), one entry per node.
	// Entry i's equal-cost next hops toward the table's anchor are
	// hops[off[i]:off[i+1]], in BFS discovery order; dist[i] is its hop
	// distance to the anchor, or unreachable.
	off  []int32
	hops []int32
	dist []int32
}

// dstRoute resolves one destination. For an anchor, via is the anchor
// itself, into is None, and base starts its own table. For a leaf, via is
// its neighbour, into the neighbour's link to the leaf, and base starts the
// neighbour's table.
type dstRoute struct {
	via, into, base int32
}

// unreachable is the distance of a node the anchor cannot reach.
const unreachable = math.MaxInt32

// leafNeighbour returns d's neighbour when d is a leaf: d has a single
// link, and the node at its far end has more than one. Both ends of a
// two-node graph stay anchors, so a leaf's neighbour is always an anchor.
func leafNeighbour(g *Graph, d NodeID) (NodeID, bool) {
	if len(g.out[d]) != 1 {
		return None, false
	}
	s := g.Links[g.out[d][0]].To
	return s, len(g.out[s]) > 1
}

// ComputeRouting builds shortest-path (hop-count) ECMP tables for all
// destinations: one BFS per anchor (see Routing), with every hop list kept
// in BFS discovery order. A BFS from a leaf d would dequeue d, then its
// neighbour s, then exactly what the BFS from s dequeues, and d is no other
// node's predecessor; so answering for d from s's table picks the same link
// for every (node, destination, flow hash) that a table of d's own would.
func ComputeRouting(g *Graph) *Routing {
	n := len(g.Nodes)
	r := &Routing{g: g, route: make([]dstRoute, n)}
	tables := 0
	for d := range r.route {
		if _, leaf := leafNeighbour(g, NodeID(d)); !leaf {
			r.route[d] = dstRoute{via: int32(d), into: None, base: int32(tables * n)}
			tables++
		}
	}
	size := tables * n
	if size > math.MaxInt32 {
		panic(fmt.Sprintf("topology: route tables for %d anchors of %d nodes exceed int32 indexing", tables, n))
	}
	for d := range r.route {
		if s, leaf := leafNeighbour(g, NodeID(d)); leaf {
			r.route[d] = dstRoute{
				via:  int32(s),
				into: int32(g.Links[g.out[d][0]].Reverse),
				base: r.route[s].base,
			}
		}
	}

	// Count pass: one BFS per anchor records distances and the discovery
	// order, and counts entry i's hops into off[i+2]. The prefix sum then
	// leaves the start of entry i's list in off[i+1], and the fill pass
	// advances off[i+1] to the list's end, which is where entry i+1 starts.
	r.dist = make([]int32, size)
	r.off = make([]int32, size+2)
	order := make([]int32, size)
	for d, rt := range r.route {
		if rt.into != None {
			continue
		}
		b := int(rt.base)
		dist := r.dist[b : b+n]
		for i := range dist {
			dist[i] = unreachable
		}
		dist[d] = 0
		queue := append(order[b:b:b+n], int32(d))
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			for _, l := range g.out[v] {
				u := g.Links[l].To
				if dist[u] > dist[v]+1 {
					dist[u] = dist[v] + 1
					queue = append(queue, int32(u))
				}
				if dist[u] == dist[v]+1 {
					r.off[b+int(u)+2]++
				}
			}
		}
		if len(queue) < n {
			order[b+len(queue)] = None
		}
	}
	total := 0
	for i := range r.off {
		total += int(r.off[i])
		r.off[i] = int32(total)
	}
	if total > math.MaxInt32 {
		panic(fmt.Sprintf("topology: %d route table hops exceed int32 indexing", total))
	}

	// Fill pass: the same (v, link) visits in the same order, so each
	// entry's hops land in discovery order.
	r.hops = make([]int32, r.off[size+1])
	for t := 0; t < tables; t++ {
		b := t * n
		dist := r.dist[b : b+n]
		for _, v := range order[b : b+n] {
			if v == None {
				break
			}
			for _, l := range g.out[v] {
				u := g.Links[l].To
				if dist[u] == dist[v]+1 {
					end := &r.off[b+int(u)+1]
					r.hops[*end] = int32(g.Links[l].Reverse)
					*end++
				}
			}
		}
	}
	r.off = r.off[:size+1]
	return r
}

// row returns the index of node at's entry in the table rt names.
func (r *Routing) row(at NodeID, rt dstRoute) int {
	if uint(at) >= uint(len(r.route)) {
		panic("topology: routing lookup from a node outside the graph")
	}
	return int(rt.base) + int(at)
}

// NextLink returns the link to take from node at toward dst for a flow with
// the given hash. The hash pins a flow to one path (per-flow ECMP).
func (r *Routing) NextLink(at, dst NodeID, flowHash uint64) (LinkID, error) {
	if at == dst {
		return None, fmt.Errorf("topology: NextLink at destination %d", dst)
	}
	rt := r.route[dst]
	if int32(at) == rt.via {
		return LinkID(rt.into), nil
	}
	i := r.row(at, rt)
	lo, hi := r.off[i], r.off[i+1]
	switch hi - lo {
	case 0:
		return None, fmt.Errorf("topology: no route %d → %d", at, dst)
	case 1:
		return LinkID(r.hops[lo]), nil
	}
	return LinkID(r.hops[lo+int32(flowHash%uint64(hi-lo))]), nil
}

// Path returns the full link path from src to dst for a flow hash.
func (r *Routing) Path(src, dst NodeID, flowHash uint64) ([]LinkID, error) {
	if src == dst {
		return nil, nil
	}
	var path []LinkID
	at := src
	for at != dst {
		l, err := r.NextLink(at, dst, flowHash)
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

// Distance returns the hop count from src to dst, or -1 if unreachable.
func (r *Routing) Distance(src, dst NodeID) int {
	if src == dst {
		return 0
	}
	rt := r.route[dst]
	d := r.dist[r.row(src, rt)]
	if d == unreachable {
		return -1
	}
	if rt.into != None {
		d++ // the leaf is one hop past its neighbour
	}
	return int(d)
}

// ECMPWidth returns the number of equal-cost next hops from at toward dst,
// a diagnostic for multipath fabrics.
func (r *Routing) ECMPWidth(at, dst NodeID) int {
	if at == dst {
		return 0
	}
	rt := r.route[dst]
	if int32(at) == rt.via {
		return 1
	}
	i := r.row(at, rt)
	return int(r.off[i+1] - r.off[i])
}

// RTT estimates the round-trip propagation delay between two nodes for a
// flow hash (forward path delay + reverse path delay). Transmission and
// queueing delays are not included; the transports measure those live.
func (r *Routing) RTT(a, b NodeID, flowHash uint64) (float64, error) {
	fwd, err := r.Path(a, b, flowHash)
	if err != nil {
		return 0, err
	}
	rev, err := r.Path(b, a, flowHash)
	if err != nil {
		return 0, err
	}
	return r.g.PathDelay(fwd) + r.g.PathDelay(rev), nil
}
