// Package ratealloc implements SCDA's resource allocation plane: the
// resource monitors (RM, one per server) and resource allocators (RA, one
// per switch) of sections III-B through VI of the paper.
//
// Every control interval τ the plane computes, for every directed link,
// the explicit per-flow rate of equation 2:
//
//	R(t) = (α·C − β·Q(t−τ)/τ) / N̂(t−τ)
//
// where the effective number of flows N̂ = S/R(t−τ) (eq. 3) counts a flow
// bottlenecked elsewhere as less than one flow — the mechanism that makes
// the allocation max-min fair ("any link bandwidth unused by some flows ...
// can be used by flows which need it"). S is the sum of flow bottleneck
// rates (eq. 4), optionally weighted by per-flow priorities ℘ⱼ (eq. 6),
// and reduced-capacity sharing implements the explicit minimum-rate
// reservations of section IV-C. A simplified variant (eq. 5) replaces the
// rate sum with the measured arrival rate Λ read from switch counters.
//
// The divisor d in the paper's βQ/d term is the queue-drain horizon; like
// RCP (the paper's ref. [6], from which this controller form descends) we
// drain the standing queue over one control interval, d = τ.
//
// The plane also detects SLA violations in realtime: a link whose demand
// sum S exceeds its effective capacity α·C − β·Q/τ is flagged within one
// control interval (section IV-A) and reported through a callback so the
// cluster can re-place content or provision spare capacity.
package ratealloc

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/netsim"
	"repro/internal/topology"
)

// Mode selects the rate-metric computation.
type Mode int

const (
	// Full uses eq. 2 with N̂ = S/R from per-flow rate sums (eq. 3/4/6).
	Full Mode = iota
	// Simplified uses eq. 5: R(t) = (αC − βQ/τ)·R(t−τ)/Λ(t), needing only
	// switch byte counters, no per-flow reports.
	Simplified
)

// Params are the control-law constants of Table I.
type Params struct {
	// Alpha is the target utilisation fraction of capacity (α).
	Alpha float64
	// Beta scales queue drain pressure (β).
	Beta float64
	// Tau is the control interval in seconds (τ). The paper suggests the
	// average or maximum RTT of the flows; the fig. 6 fabric has RTTs of
	// tens of milliseconds.
	Tau float64
	// Mode selects Full (eq. 2/3) or Simplified (eq. 5).
	Mode Mode
	// MinRate floors every link's advertised rate so a link that was
	// briefly swamped can recover (bits/sec).
	MinRate float64
}

// DefaultParams returns stable control constants: α slightly below 1 keeps
// queues near empty, β = 1 drains a standing queue in one interval.
func DefaultParams() Params {
	return Params{Alpha: 0.95, Beta: 1.0, Tau: 0.05, Mode: Full, MinRate: 1e3}
}

func (p Params) validate() error {
	switch {
	case p.Alpha <= 0 || p.Alpha > 1:
		return fmt.Errorf("ratealloc: Alpha = %v, need (0,1]", p.Alpha)
	case p.Beta < 0:
		return fmt.Errorf("ratealloc: Beta = %v", p.Beta)
	case p.Tau <= 0:
		return fmt.Errorf("ratealloc: Tau = %v", p.Tau)
	case p.MinRate <= 0:
		return fmt.Errorf("ratealloc: MinRate = %v", p.MinRate)
	}
	return nil
}

// QueueReader supplies the per-link switch counters the RM/RA read: the
// paper notes "all switches maintain the queue length in each of their
// interfaces", so no switch changes are needed. netsim.Network implements
// it; tests may use fakes.
type QueueReader interface {
	// QueueBits returns instantaneous queue occupancy in bits (Q).
	QueueBits(topology.LinkID) float64
	// ArrivedBits returns cumulative arrived bits (differenced into L, Λ).
	ArrivedBits(topology.LinkID) float64
}

// FlowID aliases the network flow identifier.
type FlowID = netsim.FlowID

// Flow is the allocator's view of one transfer.
type Flow struct {
	ID   FlowID
	Path []topology.LinkID // forward (data) path, directed links

	// Priority is the ℘ⱼ weight of eq. 6; 1 is neutral, 2 requests a
	// double share. Sources adjust it to hit target rates (section IV-A).
	Priority float64
	// MinRate is the explicit reservation Mⱼ of section IV-C in bits/sec
	// (0 = none).
	MinRate float64
	// Demand caps the rate by what the application can produce
	// ("the application generating flow j may also not have enough data
	// to send"); +Inf for bulk transfers.
	Demand float64
	// SendOther / RecvOther are the R^j_{send,other} and R^j_{recv,other}
	// endpoint resource limits (CPU, disk) of section IV; +Inf when the
	// endpoints are not the bottleneck.
	SendOther float64
	RecvOther float64

	// Rate is the flow's current bottleneck rate Rⱼ (eq. 4), updated each
	// control interval.
	Rate float64
}

// LinkState is the per-directed-link allocator state (the RM or RA
// "associated with" the link). Only the controller writes it: callers read
// the exported fields and change a link through the controller's methods.
type LinkState struct {
	ID       topology.LinkID
	Capacity float64

	// R is the current advertised per-unit-priority flow rate (eq. 2/5).
	R float64
	// S is the last sum of flow bottleneck rates (eq. 4/6).
	S float64
	// lastReportedS supports delta-encoded reporting (section IV).
	lastReportedS float64
	// Nhat is the last effective flow count (eq. 3).
	Nhat float64
	// Reserved is the ΣMⱼ of reservations crossing this link.
	Reserved float64
	// Violated reports whether the link is in a detected SLA violation
	// (S exceeding effective capacity for two consecutive intervals;
	// the persistence requirement filters convergence transients).
	Violated bool
	// pendingViolation marks a first-interval breach awaiting confirmation.
	pendingViolation bool

	// flows holds the link's registered flows in ascending FlowID order.
	// A sorted slice rather than a map: the eq. 2/3 reductions sum flow
	// rates in iteration order, and Go map iteration order varies run to
	// run, which would make the floating-point sums — and therefore every
	// "deterministic" simulation — differ in the last ulp between runs.
	flows []*Flow

	lastArrived float64 // previous cumulative arrival reading (Simplified)

	// quiet marks a link that holds no flow and whose last computed tick
	// left it where the next tick, reading the same queue (and, in
	// Simplified mode, the same arrival counter), would put it again; Tick
	// skips such a link's arithmetic. lastQ is that tick's queue reading.
	// Membership changes and SetCapacity clear the mark.
	quiet bool
	lastQ float64
}

// findFlow returns the index of id in the sorted flow slice, or the
// insertion point with found=false.
func (ls *LinkState) findFlow(id FlowID) (int, bool) {
	i := sort.Search(len(ls.flows), func(i int) bool { return ls.flows[i].ID >= id })
	return i, i < len(ls.flows) && ls.flows[i].ID == id
}

// addFlow inserts f keeping FlowID order; re-adding an ID is a no-op.
func (ls *LinkState) addFlow(f *Flow) {
	i, found := ls.findFlow(f.ID)
	if found {
		return
	}
	ls.flows = append(ls.flows, nil)
	copy(ls.flows[i+1:], ls.flows[i:])
	ls.flows[i] = f
	ls.quiet = false
}

// removeFlow deletes the flow with the given ID if present.
func (ls *LinkState) removeFlow(id FlowID) {
	if i, found := ls.findFlow(id); found {
		ls.flows = append(ls.flows[:i], ls.flows[i+1:]...)
		ls.quiet = false
	}
}

// NumFlows returns the number of flows registered on the link.
func (ls *LinkState) NumFlows() int { return len(ls.flows) }

// Violation describes one detected SLA violation.
type Violation struct {
	Link   topology.LinkID
	S      float64 // demand sum that tripped detection
	CapEff float64 // effective capacity αC − βQ/τ − reserved
	Time   float64
}

// Controller owns the allocation state for every directed link of a graph
// and advances it one control interval at a time. The cluster layer drives
// Tick from a sim.Ticker every τ.
type Controller struct {
	Params Params

	g      *topology.Graph
	reader QueueReader
	links  []*LinkState
	flows  map[FlowID]*Flow

	// hostOther[h] is the CPU/disk-limited service rate of node h
	// (R_other of section VI-A); +Inf when unconstrained.
	hostOther []float64

	// changes counts stores of a new link rate R or endpoint limit
	// R_other, the only inputs of Hierarchy.Update, which returns at once
	// when the count has not moved since its last run. It starts at 1, so
	// a new hierarchy's first Update runs.
	changes uint64
	// tickParams is Params as the last Tick saw them; quiet marks hold
	// only while Params stay the same.
	tickParams Params

	// OnViolation, when set, receives every per-link SLA violation
	// detected during a Tick.
	OnViolation func(Violation)

	// Violations counts all detections since construction.
	Violations int64
	// Ticks counts control intervals elapsed.
	Ticks int64
	// ControlMessages estimates RM/RA report traffic: one report per
	// monitored link per tick plus one per tree edge for aggregation
	// (diagnostic; control traffic is modelled out-of-band).
	ControlMessages int64
	// ControlBytesFull and ControlBytesDelta estimate report payload under
	// the two encodings of section IV: sending the full rate sum every
	// interval versus "sending the difference which is a smaller number
	// than the sum of the rates" (and nothing at all when unchanged).
	ControlBytesFull  int64
	ControlBytesDelta int64
}

// NewController builds allocator state for every directed link.
func NewController(g *topology.Graph, reader QueueReader, p Params) (*Controller, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	c := &Controller{
		Params:    p,
		g:         g,
		reader:    reader,
		links:     make([]*LinkState, len(g.Links)),
		flows:     make(map[FlowID]*Flow),
		hostOther: make([]float64, len(g.Nodes)),
		changes:   1,
	}
	for h := range c.hostOther {
		c.hostOther[h] = math.Inf(1)
	}
	for i, l := range g.Links {
		c.links[i] = &LinkState{
			ID:       l.ID,
			Capacity: l.Capacity,
			R:        p.Alpha * l.Capacity, // optimistic start
		}
	}
	return c, nil
}

// SetCapacity updates a link's capacity C (spare-capacity activation
// after an SLA violation, section IV-A); the next interval allocates
// against the new value.
func (c *Controller) SetCapacity(id topology.LinkID, capacity float64) {
	if capacity > 0 {
		c.links[id].Capacity = capacity
		c.links[id].quiet = false
	}
}

// Link returns the allocator state of a directed link.
func (c *Controller) Link(id topology.LinkID) *LinkState { return c.links[id] }

// SetHostOther sets the endpoint resource limit (CPU/disk service rate in
// bits/sec) used as R_other for flows sent or received by host h, a node
// of the controller's graph.
func (c *Controller) SetHostOther(h topology.NodeID, rate float64) {
	if !bitsEqual(c.hostOther[h], rate) {
		c.hostOther[h] = rate
		c.changes++
	}
}

// HostOther returns the endpoint limit for a host (+Inf when unset).
func (c *Controller) HostOther(h topology.NodeID) float64 { return c.hostOther[h] }

// setR stores a link's advertised rate, counting a new value for
// Hierarchy.Update.
func (c *Controller) setR(ls *LinkState, r float64) {
	if !bitsEqual(ls.R, r) {
		ls.R = r
		c.changes++
	}
}

// bitsEqual reports whether a and b are the same float64, bit for bit: a
// NaN matches its own bits, and -0 does not match +0.
func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// minf returns math.Min(a, b) bit for bit. Two ordered compares settle
// every pair of distinct non-NaN operands; ties (±0 among them) and NaNs
// fall through to math.Min. Unlike math.Min, which amd64 implements out
// of line, it inlines.
func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	if b < a {
		return b
	}
	return math.Min(a, b)
}

// Register adds a flow to the allocator on every link of its path. Flows
// default to neutral priority and unbounded demand when fields are zero.
func (c *Controller) Register(f *Flow) error {
	if _, dup := c.flows[f.ID]; dup {
		return fmt.Errorf("ratealloc: flow %d already registered", f.ID)
	}
	if len(f.Path) == 0 {
		return fmt.Errorf("ratealloc: flow %d has empty path", f.ID)
	}
	if f.Priority <= 0 {
		f.Priority = 1
	}
	if f.Demand <= 0 {
		f.Demand = math.Inf(1)
	}
	if f.SendOther <= 0 {
		f.SendOther = math.Inf(1)
	}
	if f.RecvOther <= 0 {
		f.RecvOther = math.Inf(1)
	}
	c.flows[f.ID] = f
	for _, lid := range f.Path {
		ls := c.links[lid]
		ls.addFlow(f)
		ls.Reserved += f.MinRate
	}
	// a new flow starts at the path's current advertised rate ...
	f.Rate = c.flowRate(f)
	// ... and its links immediately account for it, so the advertised
	// rate (and the live FlowRate of every flow sharing these links)
	// drops before the next periodic tick. This event-driven update is
	// what keeps queues empty through arrival transients.
	for _, lid := range f.Path {
		c.recomputeLink(c.links[lid])
	}
	c.refreshSharers(f.Path)
	return nil
}

// refreshSharers re-derives the cached bottleneck rate of every flow
// crossing the given links, so the next event-driven recompute works from
// coherent values instead of rates staled by membership churn.
func (c *Controller) refreshSharers(path []topology.LinkID) {
	for _, lid := range path {
		for _, g := range c.links[lid].flows {
			g.Rate = c.flowRate(g)
		}
	}
}

// Unregister removes a completed flow.
func (c *Controller) Unregister(id FlowID) {
	f, ok := c.flows[id]
	if !ok {
		return
	}
	delete(c.flows, id)
	for _, lid := range f.Path {
		ls := c.links[lid]
		ls.removeFlow(id)
		ls.Reserved -= f.MinRate
		c.recomputeLink(ls) // freed share is available immediately
	}
	c.refreshSharers(f.Path)
}

// NumFlows returns the number of registered flows.
func (c *Controller) NumFlows() int { return len(c.flows) }

// FlowRate returns the flow's current allocated rate Rⱼ in bits/sec, or 0
// for an unknown flow. Transports read this to size their windows and
// pacing (cwnd = R×RTT, section VIII). The value is computed live from the
// current link rates so that event-driven link updates (flow joins and
// departures) propagate to every sharer immediately, not only at the next
// control interval.
func (c *Controller) FlowRate(id FlowID) float64 {
	if f, ok := c.flows[id]; ok {
		return c.flowRate(f)
	}
	return 0
}

// SetPriority updates a flow's ℘ⱼ weight (section IV-A: "the weights of
// prioritized flows can then be adaptively adjusted by each distributed
// source at every RTT").
func (c *Controller) SetPriority(id FlowID, p float64) {
	if f, ok := c.flows[id]; ok && p > 0 {
		f.Priority = p
	}
}

// flowRate recomputes Rⱼ (eq. 4): the minimum of the flow's weighted
// fair share along its path, its demand, and the endpoint limits.
func (c *Controller) flowRate(f *Flow) float64 {
	r := minf(f.Demand, minf(f.SendOther, f.RecvOther))
	for _, lid := range f.Path {
		ls := c.links[lid]
		share := f.MinRate + f.Priority*ls.R
		if cap := c.Params.Alpha * ls.Capacity; share > cap {
			share = cap // one flow can never exceed the link itself
		}
		if share < r {
			r = share
		}
	}
	// endpoint host limits (R_other), if the path starts/ends at a host
	if len(f.Path) > 0 {
		src := c.g.Links[f.Path[0]].From
		dst := c.g.Links[f.Path[len(f.Path)-1]].To
		r = minf(r, minf(c.hostOther[src], c.hostOther[dst]))
	}
	return r
}

// recomputeLink re-runs the eq. 2 rate computation for one link from the
// cached flow rates, outside the periodic tick. Used on flow registration
// and departure so the advertised rate reflects membership changes
// immediately (in both modes; the Simplified mode's Λ-based form needs a
// full interval of arrivals, so events use the rate-sum form). It runs
// only right after addFlow or removeFlow on the same link, which have
// already cleared the link's quiet mark.
func (c *Controller) recomputeLink(ls *LinkState) {
	q := c.reader.QueueBits(ls.ID)
	effShared := c.Params.Alpha*ls.Capacity - c.Params.Beta*q/c.Params.Tau - ls.Reserved
	if effShared < c.Params.MinRate {
		effShared = c.Params.MinRate
	}
	sShared := 0.0
	for _, f := range ls.flows {
		if share := f.Rate - f.MinRate; share > 0 {
			sShared += share
		}
	}
	if nhat := sShared / ls.R; nhat > 0 {
		ls.Nhat = nhat
		c.setR(ls, clamp(effShared/nhat, c.Params.MinRate, c.Params.Alpha*ls.Capacity))
	} else {
		c.setR(ls, effShared)
	}
}

// Tick advances one control interval at simulation time now: recompute
// every flow's bottleneck rate from last interval's link rates, then every
// link's advertised rate, then run SLA detection.
//
// A quiet link (see LinkState) keeps its values: with no flow, N̂ = 0/R
// is 0 for any R > 0, so R = αC − βQ/τ − ΣM depends only on the queue
// reading, the capacity and the reservations, and S, N̂, the violation
// flags and the last reported sum come out as they are. In Simplified
// mode an unchanged arrival counter likewise gives Λ = 0 again.
func (c *Controller) Tick(now float64) {
	c.Ticks++
	if c.Params != c.tickParams {
		for _, ls := range c.links {
			ls.quiet = false
		}
		c.tickParams = c.Params
	}
	// pass 1: flow bottleneck rates Rⱼ(t) from R(t−τ) (eq. 4)
	for _, f := range c.flows {
		f.Rate = c.flowRate(f)
		c.ControlMessages++ // RM reports its flow's rate
	}
	// pass 2: link rates (eq. 2 or eq. 5) and SLA detection
	for _, ls := range c.links {
		q := c.reader.QueueBits(ls.ID)
		var arrived float64 // stays 0, as lastArrived does, in Full mode
		if c.Params.Mode == Simplified {
			arrived = c.reader.ArrivedBits(ls.ID)
		}
		if ls.quiet && bitsEqual(q, ls.lastQ) && bitsEqual(arrived, ls.lastArrived) {
			c.ControlMessages++
			c.ControlBytesFull += 8
			continue
		}
		ls.lastQ = q
		// capRaw is the eq. 2 numerator αC − βQ/τ; the shared pool
		// additionally excludes explicit reservations (section IV-C).
		capRaw := c.Params.Alpha*ls.Capacity - c.Params.Beta*q/c.Params.Tau
		effShared := capRaw - ls.Reserved
		if effShared < c.Params.MinRate {
			effShared = c.Params.MinRate
		}
		sTotal := 0.0 // eq. 6 sum: full weighted bottleneck rates
		switch c.Params.Mode {
		case Full:
			sShared := 0.0
			for _, f := range ls.flows {
				sTotal += f.Rate
				// only the non-reserved portion competes for the pool
				if share := f.Rate - f.MinRate; share > 0 {
					sShared += share
				}
			}
			ls.S = sTotal
			ls.Nhat = sShared / ls.R
			// with no flow, N̂ = +0 again next tick when R > 0 now and then
			ls.quiet = len(ls.flows) == 0 && ls.R > 0 && effShared > 0
			if ls.Nhat <= 0 {
				// no demand: offer the whole shared pool (max-min: idle
				// capacity is available to whoever asks next)
				c.setR(ls, effShared)
			} else {
				c.setR(ls, clamp(effShared/ls.Nhat, c.Params.MinRate, c.Params.Alpha*ls.Capacity))
			}
		case Simplified:
			lbits := arrived - ls.lastArrived
			ls.lastArrived = arrived
			lambda := lbits / c.Params.Tau // Λ = L/τ
			sTotal = lambda
			ls.S = lambda
			// L = +0 now gives L = A − A = +0 and S = +0 again next tick
			ls.quiet = len(ls.flows) == 0 && math.Float64bits(lbits) == 0
			if lambda <= 0 {
				c.setR(ls, effShared)
			} else {
				ls.Nhat = lambda / ls.R
				// Damped multiplicative update: the raw eq. 5 map
				// R ← R·(cap/Λ) has unit gain and limit-cycles under the
				// one-interval measurement delay; the square root keeps
				// the same fixed point (Λ = effective capacity) while
				// halving the loop gain.
				c.setR(ls, clamp(ls.R*math.Sqrt(effShared/lambda), c.Params.MinRate, c.Params.Alpha*ls.Capacity))
			}
		}
		// Realtime SLA violation detection (section IV-A): the RM/RA
		// "detects SLA violation if its S(t) exceeds the capacity of the
		// link it is associated with". Two triggers: the demand sum
		// exceeding αC − βQ/τ (with a small tolerance so the converged
		// operating point S ≈ capacity does not flap), or reservations
		// having consumed the link entirely (over-subscribed SLAs). A
		// breach must persist two consecutive intervals before it is
		// reported, filtering single-interval convergence transients
		// during flow churn.
		breach := len(ls.flows) > 0 &&
			(sTotal > capRaw*violationTolerance || capRaw-ls.Reserved <= c.Params.MinRate)
		wasViolated := ls.Violated
		switch {
		case breach && ls.pendingViolation:
			ls.Violated = true
		case breach:
			ls.pendingViolation = true
		default:
			ls.pendingViolation = false
			ls.Violated = false
		}
		if ls.Violated && !wasViolated {
			c.Violations++
			if c.OnViolation != nil {
				c.OnViolation(Violation{Link: ls.ID, S: sTotal, CapEff: capRaw, Time: now})
			}
		}
		c.ControlMessages++ // RA aggregation message up the tree
		// report-size accounting: full encoding always ships the 8-byte
		// sum; delta encoding ships a varint-sized difference and skips
		// unchanged values entirely.
		c.ControlBytesFull += 8
		if delta := ls.S - ls.lastReportedS; delta != 0 {
			c.ControlBytesDelta += varintBytes(delta)
			ls.lastReportedS = ls.S
		}
	}
}

// varintBytes estimates the wire size of a delta report: small changes in
// bits/sec encode in fewer bytes (1 byte per 7 bits of magnitude, capped
// at a full 8-byte word).
func varintBytes(delta float64) int64 {
	if delta < 0 {
		delta = -delta
	}
	n := int64(1)
	for v := uint64(delta); v >= 1<<7 && n < 8; v >>= 7 {
		n++
	}
	return n
}

// violationTolerance keeps the converged operating point (S ≈ effective
// capacity) from flapping the detector; 5% over capacity is a real breach.
const violationTolerance = 1.05

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// PathRate returns the rate a new neutral-priority flow would currently be
// offered along a path: min over links of R, the quantity the NNS compares
// when choosing servers.
func (c *Controller) PathRate(path []topology.LinkID) float64 {
	r := math.Inf(1)
	for _, lid := range path {
		if lr := c.links[lid].R; lr < r {
			r = lr
		}
	}
	return r
}
