package ratealloc

import (
	"fmt"
	"math"

	"repro/internal/topology"
)

// ServerRate pairs a block server with an advertised rate, the (BS, R̂)
// tuples RAs keep so "the NNS [can] decide where to store (write) data".
type ServerRate struct {
	Server topology.NodeID
	Rate   float64
}

// RM is the per-server resource monitor of section III-B. It monitors the
// server's access link in both directions, folds in the server's own
// CPU/disk limit (R_other), and after every control interval knows the
// best h-level up-link and down-link rates from the down pass (the Rˇ
// values of fig. 2).
type RM struct {
	Host     topology.NodeID
	UpLink   topology.LinkID // host → ToR
	DownLink topology.LinkID // ToR → host
	IsServer bool            // block servers participate in selection

	// UpHat is R̂ = min(R_uplink, R_other) (fig. 2 leaf rule); DownHat
	// likewise for the down direction.
	UpHat   float64
	DownHat float64

	// UpToLevel[h] is the minimum up-direction rate from this host to its
	// level-h ancestor (h ≥ 1); DownFromLevel[h] the minimum down-direction
	// rate from the level-h ancestor to this host. Index 0 is unused.
	UpToLevel     []float64
	DownFromLevel []float64

	parent *RA
}

// RA is the per-switch resource allocator. After each Update it holds the
// best servers in its subtree by the three metrics the server-selection
// policies need (section VII): best down-link rate (writes), best up-link
// rate (reads), and best min(up, down) (interactive content).
type RA struct {
	Switch topology.NodeID
	Level  int

	UpLink   topology.LinkID // switch → parent (None at root)
	DownLink topology.LinkID // parent → switch (None at root)

	Parent   *RA
	Children []*RA
	RMs      []*RM

	BestUp   ServerRate
	BestDown ServerRate
	BestMin  ServerRate
}

// EachServer visits every server RM in the RA's subtree.
func (ra *RA) EachServer(fn func(*RM)) {
	for _, rm := range ra.RMs {
		if rm.IsServer {
			fn(rm)
		}
	}
	for _, ch := range ra.Children {
		ch.EachServer(fn)
	}
}

// Hierarchy mirrors the physical switch tree with RAs and attaches one RM
// per host, implementing the max/min aggregation of section VI-A / fig. 2.
// It applies to tree-shaped fabrics (the paper's fig. 1/6); for general
// topologies (section IX) use Controller.PathRate, which performs the same
// max/min over explicit routed paths.
type Hierarchy struct {
	ctrl  *Controller
	g     *topology.Graph
	root  *RA
	ras   map[topology.NodeID]*RA
	rms   map[topology.NodeID]*RM
	hmax  int
	hosts []*RM

	// seen is the controller's change count at the last Update.
	seen uint64
}

// NewHierarchy derives the RM/RA tree from the graph: every switch gets an
// RA whose parent is its unique higher-level switch neighbour; every host
// gets an RM on its access link. servers marks which hosts are block
// servers (participate in selection); other hosts (external clients, FES,
// NNS) still get RMs for window management but are never selected.
func NewHierarchy(ctrl *Controller, g *topology.Graph, servers map[topology.NodeID]bool) (*Hierarchy, error) {
	h := &Hierarchy{
		ctrl: ctrl,
		g:    g,
		ras:  make(map[topology.NodeID]*RA),
		rms:  make(map[topology.NodeID]*RM),
	}
	// create RAs
	for _, n := range g.Nodes {
		if n.Kind == topology.Switch {
			h.ras[n.ID] = &RA{Switch: n.ID, Level: n.Level, UpLink: topology.None, DownLink: topology.None}
			if n.Level > h.hmax {
				h.hmax = n.Level
			}
		}
	}
	// wire switch tree: parent = unique neighbouring switch at higher level
	for id, ra := range h.ras {
		for _, lid := range g.Out(id) {
			nb := g.Links[lid].To
			nbNode := g.Nodes[nb]
			if nbNode.Kind != topology.Switch {
				continue
			}
			if nbNode.Level > ra.Level {
				if ra.Parent != nil {
					return nil, fmt.Errorf("ratealloc: switch %d has multiple parents; hierarchy requires a tree (use PathRate for general fabrics)", id)
				}
				ra.Parent = h.ras[nb]
				ra.UpLink = lid
				ra.DownLink = g.Links[lid].Reverse
			}
		}
	}
	for _, ra := range h.ras {
		if ra.Parent == nil {
			if h.root != nil {
				return nil, fmt.Errorf("ratealloc: multiple root switches (%d and %d)", h.root.Switch, ra.Switch)
			}
			h.root = ra
		} else {
			ra.Parent.Children = append(ra.Parent.Children, ra)
		}
	}
	if h.root == nil {
		return nil, fmt.Errorf("ratealloc: no root switch found")
	}
	// attach RMs
	for _, n := range g.Nodes {
		if n.Kind != topology.Host {
			continue
		}
		out := g.Out(n.ID)
		if len(out) != 1 {
			return nil, fmt.Errorf("ratealloc: host %d has %d links, want exactly 1", n.ID, len(out))
		}
		up := out[0]
		sw := g.Links[up].To
		ra, ok := h.ras[sw]
		if !ok {
			return nil, fmt.Errorf("ratealloc: host %d attached to non-switch %d", n.ID, sw)
		}
		rm := &RM{
			Host:          n.ID,
			UpLink:        up,
			DownLink:      g.Links[up].Reverse,
			IsServer:      servers[n.ID],
			parent:        ra,
			UpToLevel:     make([]float64, h.hmax+1),
			DownFromLevel: make([]float64, h.hmax+1),
		}
		ra.RMs = append(ra.RMs, rm)
		h.rms[n.ID] = rm
		h.hosts = append(h.hosts, rm)
	}
	return h, nil
}

// Root returns the highest-level RA (level hmax).
func (h *Hierarchy) Root() *RA { return h.root }

// MaxLevel returns hmax.
func (h *Hierarchy) MaxLevel() int { return h.hmax }

// RAFor returns the RA of a switch, or nil.
func (h *Hierarchy) RAFor(sw topology.NodeID) *RA { return h.ras[sw] }

// RMFor returns the RM of a host, or nil.
func (h *Hierarchy) RMFor(host topology.NodeID) *RM { return h.rms[host] }

// AncestorAt returns the RA at the given level on a host's path to the
// root (e.g. level 1 = its ToR's RA, the "RA at level 1 of the
// corresponding rack" of section VIII-A).
func (h *Hierarchy) AncestorAt(host topology.NodeID, level int) *RA {
	rm := h.rms[host]
	if rm == nil {
		return nil
	}
	ra := rm.parent
	for ra != nil && ra.Level < level {
		ra = ra.Parent
	}
	return ra
}

// Update runs one round of the fig. 2 max/min aggregation from the current
// controller link rates: an up pass computing each RA's best-server tuples
// and a down pass filling each RM's per-level rate vectors. Call it after
// Controller.Tick each control interval.
//
// The passes read only the links' R and the hosts' R_other, and run again
// on the same inputs they write the same values, the down pass's gap fill
// included; so when the controller has stored no new R or R_other since
// the last Update, Update returns at once. Callers read the RM and RA
// aggregates; only Update writes them.
func (h *Hierarchy) Update() {
	if h.seen == h.ctrl.changes {
		return
	}
	h.seen = h.ctrl.changes
	h.upPass(h.root)
	for _, rm := range h.hosts {
		h.downFill(rm)
	}
}

func (h *Hierarchy) upPass(ra *RA) ServerRate3 {
	best := ServerRate3{
		up:   ServerRate{Server: topology.None, Rate: math.Inf(-1)},
		down: ServerRate{Server: topology.None, Rate: math.Inf(-1)},
		min:  ServerRate{Server: topology.None, Rate: math.Inf(-1)},
	}
	links := h.ctrl.links
	for _, rm := range ra.RMs {
		other := h.ctrl.hostOther[rm.Host]
		rm.UpHat = minf(links[rm.UpLink].R, other)
		rm.DownHat = minf(links[rm.DownLink].R, other)
		if !rm.IsServer {
			continue
		}
		best.consider(rm.Host, rm.UpHat, rm.DownHat)
	}
	for _, ch := range ra.Children {
		sub := h.upPass(ch)
		best.mergeChild(sub)
	}
	// fig. 2: R̂(h) = min(max over children, R of own link to parent)
	if ra.UpLink != topology.None {
		upR, downR := links[ra.UpLink].R, links[ra.DownLink].R
		best.up.Rate = minf(best.up.Rate, upR)
		best.down.Rate = minf(best.down.Rate, downR)
		best.min.Rate = minf(best.min.Rate, minf(upR, downR))
	}
	ra.BestUp, ra.BestDown, ra.BestMin = best.up, best.down, best.min
	return best
}

// ServerRate3 bundles the three per-subtree aggregates carried up the tree.
type ServerRate3 struct {
	up, down, min ServerRate
}

func (b *ServerRate3) consider(server topology.NodeID, upHat, downHat float64) {
	if upHat > b.up.Rate {
		b.up = ServerRate{server, upHat}
	}
	if downHat > b.down.Rate {
		b.down = ServerRate{server, downHat}
	}
	if m := minf(upHat, downHat); m > b.min.Rate {
		b.min = ServerRate{server, m}
	}
}

func (b *ServerRate3) mergeChild(sub ServerRate3) {
	if sub.up.Rate > b.up.Rate {
		b.up = sub.up
	}
	if sub.down.Rate > b.down.Rate {
		b.down = sub.down
	}
	if sub.min.Rate > b.min.Rate {
		b.min = sub.min
	}
}

// downFill computes the RM's Rˇ vectors: the minimum rate between the host
// and each ancestor level, the values "helpful for the NNS in deciding
// where to read replicated data from and to update the rates of on-going
// flows" (section VI-A down pass).
func (h *Hierarchy) downFill(rm *RM) {
	up := rm.UpHat
	down := rm.DownHat
	level := 1
	rm.UpToLevel[level] = up
	rm.DownFromLevel[level] = down
	links := h.ctrl.links
	ra := rm.parent
	for ra != nil && ra.Parent != nil {
		up = minf(up, links[ra.UpLink].R)
		down = minf(down, links[ra.DownLink].R)
		level = ra.Parent.Level
		if level < len(rm.UpToLevel) {
			rm.UpToLevel[level] = up
			rm.DownFromLevel[level] = down
		}
		ra = ra.Parent
	}
	// fill gaps (levels with no RA boundary inherit the value below)
	for l := 2; l <= h.hmax; l++ {
		if rm.UpToLevel[l] == 0 {
			rm.UpToLevel[l] = rm.UpToLevel[l-1]
		}
		if rm.DownFromLevel[l] == 0 {
			rm.DownFromLevel[l] = rm.DownFromLevel[l-1]
		}
	}
}

// CommonLevel returns the level of the lowest common ancestor switch of two
// hosts, used for section VIII-D window updates ("suppose the lowest level
// parent both the sender and receiver share is at level h").
func (h *Hierarchy) CommonLevel(a, b topology.NodeID) int {
	ra, rb := h.rms[a], h.rms[b]
	if ra == nil || rb == nil {
		return h.hmax
	}
	// collect a's ancestor set
	anc := map[topology.NodeID]int{}
	for x := ra.parent; x != nil; x = x.Parent {
		anc[x.Switch] = x.Level
	}
	for y := rb.parent; y != nil; y = y.Parent {
		if lvl, ok := anc[y.Switch]; ok {
			return lvl
		}
	}
	return h.hmax
}
