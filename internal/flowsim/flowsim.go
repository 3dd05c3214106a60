// Package flowsim is a fluid-level flow simulator: flows progress at
// exact max-min fair rates computed by progressive filling, with rate
// recomputation at every flow arrival and departure.
//
// It serves three purposes in the reproduction:
//
//  1. Oracle: progressive filling is the textbook max-min allocation; the
//     ablation experiments compare the SCDA RM/RA controller's converged
//     rates against it to validate the eq. 2/3 mechanism.
//  2. Scale: fluid simulation is orders of magnitude faster than
//     packet-level simulation, enabling 100k+ concurrent flows per
//     simulated cluster — the scenario subsystem exposes it as
//     "engine": "fluid".
//  3. Incremental dynamics: the Incremental solver repairs the max-min
//     allocation after a single flow arrival or departure by replaying
//     only the filling rounds the event can affect, producing rates
//     bit-for-bit identical to a fresh full solve (see incremental.go).
//
// The solver is allocation-free in steady state: all per-solve scratch
// (residual capacities, weight sums, the candidate-link list) lives in a
// Solver that is reused across events. Links are stamped with a solve
// epoch so only the links actually touched by active flows are reset
// between solves — a solve over k flows with h-hop paths costs
// O(k·h·rounds) regardless of graph size. The Simulator is likewise
// allocation-free in steady state: flows are pooled (AcquireFlow/Reset),
// arrival and completion heaps are typed 4-ary heaps with reused entries,
// and flow sizes are materialized lazily — a flow's remaining size is only
// updated when its rate changes, so an event touches O(changed) flows, not
// O(active).
package flowsim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/topology"
)

// Flow is one fluid transfer.
type Flow struct {
	ID     int64
	Path   []topology.LinkID
	Size   float64 // bits remaining (materialized lazily by the Simulator)
	Weight float64 // max-min weight (1 = neutral)

	// Rate is the current max-min rate (bits/sec), valid between events.
	Rate float64
	// Start and Finish are set by the simulator.
	Start  float64
	Finish float64

	done bool

	// solver internals
	fz  uint64 // fill epoch when this flow's rate was frozen
	pos int    // 1-based index in an Incremental's flow list; 0 = inactive

	// simulator internals
	seq  uint64  // admission sequence, for deterministic heap tie-breaks
	ver  uint32  // completion-heap entry version (stale entries are skipped)
	updT float64 // time Size was last materialized
}

// fillEpochs issues one globally unique epoch per fill, so a flow's frozen
// mark (f.fz) from any earlier solve — by this or any other Solver — can
// never collide with the current one. Monotonicity is all that matters;
// the counter never influences arithmetic, so determinism is unaffected.
var fillEpochs atomic.Uint64

// Solver holds the reusable scratch state for progressive filling. A
// Solver may be reused across solves of any size (scratch grows to the
// high-water mark) but must not be shared between concurrent goroutines;
// use one Solver per Simulator, or MaxMinRates which draws from a pool.
type Solver struct {
	epoch  uint64    // link-scratch epoch
	stamp  []uint64  // per-link: epoch when last touched
	cap    []float64 // per-link residual capacity (valid when stamped)
	weight []float64 // per-link sum of unfrozen flow weights
	cand   []int32   // candidate constrained links (weight still > 0)
}

// NewSolver returns a solver pre-sized for a graph with nLinks links.
func NewSolver(nLinks int) *Solver {
	sv := &Solver{}
	sv.ensure(nLinks)
	return sv
}

func (sv *Solver) ensure(nLinks int) {
	if len(sv.stamp) < nLinks {
		// fresh zeroed stamps are fine: epoch is always ≥ 1 inside solve,
		// so unstamped entries read as untouched
		sv.stamp = make([]uint64, nLinks)
		sv.cap = make([]float64, nLinks)
		sv.weight = make([]float64, nLinks)
	}
}

// satEps is the relative tolerance for "this link is saturated at the
// round's share". The incremental replay uses the same constant when it
// decides whether an event-path link could have participated in a round.
const satEps = 1e-12

// Solve computes weighted max-min fair rates for the active (non-done)
// flows by progressive filling: repeatedly find the most constrained link,
// freeze its unfrozen flows at the equal (weighted) share, subtract,
// repeat. capacities maps directed links (indexed by LinkID) to bits/sec.
// Every active flow is assigned a rate; flows that traverse only
// unconstrained links keep rate 0, exactly as the map-based implementation
// did.
//
//scda:noalloc guarded by the AllocsPerRun checks in flowsim_test.go
func (sv *Solver) Solve(flows []*Flow, capacities []float64) {
	sv.ensure(len(capacities))
	sv.epoch++
	ep := fillEpochs.Add(1)
	cand := sv.cand[:0]
	remaining := 0
	for _, f := range flows {
		if f.done {
			continue
		}
		remaining++
		f.Rate = 0
		for _, l := range f.Path {
			if sv.stamp[l] != sv.epoch {
				sv.stamp[l] = sv.epoch
				sv.cap[l] = capacities[l]
				sv.weight[l] = 0
				cand = append(cand, int32(l))
			}
			sv.weight[l] += f.Weight
		}
	}
	sv.cand = sv.fill(flows, ep, remaining, cand)
}

// fill runs the progressive-filling rounds over the given flows, skipping
// flows already frozen in epoch ep (or done) and marking each flow it
// freezes with ep. Its per-round arithmetic — the share expression, the
// saturation tolerance, the freeze order, the subtract-with-clamp — is the
// contract the incremental solver reproduces bit for bit (see
// incremental.go).
//
//scda:noalloc
func (sv *Solver) fill(flows []*Flow, ep uint64, remaining int, cand []int32) []int32 {
	for remaining > 0 {
		// most constrained link: min cap/weight among links with demand.
		// Each round scans only the candidate list (compacting out links
		// whose demand has been fully frozen away) instead of every link
		// in the graph.
		minShare := math.Inf(1)
		argmin := int32(-1)
		live := cand[:0]
		for _, li := range cand {
			if sv.weight[li] <= 0 {
				continue
			}
			live = append(live, li)
			if s := sv.cap[li] / sv.weight[li]; s < minShare {
				minShare = s
				argmin = li
			}
		}
		cand = live
		if math.IsInf(minShare, 1) {
			break // leftover flows traverse only unconstrained links
		}
		// freeze flows on saturated links at weight×share
		froze := false
		for _, f := range flows {
			if f.done || f.fz == ep {
				continue
			}
			sat := int32(-1)
			for _, l := range f.Path {
				if sv.weight[l] > 0 && sv.cap[l]/sv.weight[l] <= minShare*(1+satEps) {
					sat = int32(l)
					break
				}
			}
			if sat < 0 {
				continue
			}
			f.Rate = f.Weight * minShare
			f.fz = ep
			froze = true
			remaining--
			for _, l := range f.Path {
				sv.cap[l] -= f.Rate
				if sv.cap[l] < 0 {
					sv.cap[l] = 0
				}
				sv.weight[l] -= f.Weight
			}
		}
		if !froze {
			// Degenerate round: the argmin carries no unfrozen flow — its
			// weight is pure floating-point residue from subtracting a
			// drained link's flows in a different order than they were
			// accumulated (impossible with integer weights, routine with
			// fractional ones). Such a link is on no unfrozen flow's path,
			// so it can never influence a real decision; drain it and move
			// on. Skipping state-free rounds keeps incremental equivalence:
			// both solvers skip their own (differently-ordered) residues.
			sv.weight[argmin] = 0
		}
	}
	return cand
}

// solverPool backs the package-level MaxMinRates so one-shot callers stay
// cheap without owning a Solver. Solver scratch is epoch-stamped, so a
// pooled solver's leftover state cannot affect results and pooling does
// not perturb determinism.
var solverPool = sync.Pool{New: func() any { return &Solver{} }}

// MaxMinRates computes weighted max-min fair rates for flows over the
// given directed-link capacities. Callers with a hot loop should hold a
// Solver (or use Simulator, which owns one) instead: the pool can be
// emptied by a GC cycle, so this wrapper cannot guarantee 0 allocs/op.
func MaxMinRates(flows []*Flow, capacities []float64) {
	sv := solverPool.Get().(*Solver)
	sv.Solve(flows, capacities)
	solverPool.Put(sv)
}

// Simulator advances fluid flows through arrivals and completions. Rates
// are maintained by an Incremental solver (one repair per arrival or
// completion batch), flow sizes are materialized lazily (only when a
// flow's rate changes), and the next completion comes from a versioned
// 4-ary heap — so one event costs O(changed flows), plus the repair,
// rather than O(active flows).
type Simulator struct {
	g          *topology.Graph
	capacities []float64
	now        float64
	inc        *Incremental
	pending    []arrival // 4-ary min-heap by (at, seq)
	comp       []compEnt // 4-ary min-heap by (t, seq); lazily invalidated
	seq        uint64
	peakActive int

	// Completed collects finished flows in completion order.
	Completed []*Flow

	free   []*Flow // recycled flows for AcquireFlow
	addBuf []*Flow
	rmBuf  []*Flow
}

type arrival struct {
	at   float64
	seq  uint64
	flow *Flow
}

type compEnt struct {
	t    float64
	seq  uint64
	ver  uint32
	flow *Flow
}

// New creates a fluid simulator over a graph.
func New(g *topology.Graph) *Simulator {
	caps := make([]float64, len(g.Links))
	for i, l := range g.Links {
		caps[i] = l.Capacity
	}
	return &Simulator{g: g, capacities: caps, inc: NewIncremental(caps)}
}

// Now returns the fluid clock.
func (s *Simulator) Now() float64 { return s.now }

// Active returns the number of in-flight flows.
func (s *Simulator) Active() int { return len(s.inc.flows) }

// Flows returns the in-flight flows in solver order. The slice is valid
// until the next AddFlow, Run or Reset and must not be mutated. Run
// materializes every in-flight flow's Size at its horizon before
// returning, so after Run the sizes reflect exactly the bits remaining.
func (s *Simulator) Flows() []*Flow { return s.inc.flows }

// PeakActive returns the high-water mark of concurrently active flows.
func (s *Simulator) PeakActive() int { return s.peakActive }

// AcquireFlow returns a zeroed Flow, recycling one retired by Reset when
// available, so a reused Simulator admits flows without allocating.
//
//scda:noalloc warm path: a drained free list falls back to one pooled &Flow{}
func (s *Simulator) AcquireFlow() *Flow {
	if n := len(s.free); n > 0 {
		f := s.free[n-1]
		s.free = s.free[:n-1]
		return f
	}
	return &Flow{}
}

// Reset returns the simulator to time zero for reuse: all flows — pending,
// active and completed — are recycled into the AcquireFlow free list, and
// every internal buffer keeps its capacity, so a warm Simulator runs whole
// workloads without allocating.
func (s *Simulator) Reset() {
	for _, a := range s.pending {
		s.recycle(a.flow)
	}
	for _, f := range s.inc.flows {
		s.recycle(f)
	}
	for _, f := range s.Completed {
		s.recycle(f)
	}
	s.pending = s.pending[:0]
	s.comp = s.comp[:0]
	s.Completed = s.Completed[:0]
	s.inc.Reset()
	s.now = 0
	s.seq = 0
	s.peakActive = 0
}

// recycle zeroes a retired flow into the AcquireFlow free list.
//
//scda:noalloc steady state: the free-list append is amortized pool growth
func (s *Simulator) recycle(f *Flow) {
	*f = Flow{}
	s.free = append(s.free, f)
}

// AddFlow schedules a flow arrival. Size is in bits; a weight of 0 or less
// means 1. A NaN arrival time or size, a path link outside the graph, and
// a NaN or infinite weight are rejected with an error naming the field.
// An infinite size or arrival time is accepted: the flow never finishes,
// or never arrives.
func (s *Simulator) AddFlow(at float64, f *Flow) error {
	if math.IsNaN(at) {
		return fmt.Errorf("flowsim: flow %d arrival time NaN", f.ID)
	}
	if !(f.Size > 0) {
		return fmt.Errorf("flowsim: flow %d size %v", f.ID, f.Size)
	}
	if f.Weight <= 0 {
		f.Weight = 1
	}
	if err := checkFlow(f, len(s.capacities)); err != nil {
		return fmt.Errorf("flowsim: %w", err)
	}
	if at < s.now {
		return fmt.Errorf("flowsim: flow %d arrival time %v in the past (now %v)", f.ID, at, s.now)
	}
	f.seq = s.seq
	s.seq++
	s.pushArrival(arrival{at: at, seq: f.seq, flow: f})
	return nil
}

// Run advances until the horizon, materializing every in-flight flow's
// Size there. An infinite horizon runs until nothing is pending, leaving
// the clock at the last event, as sim.Simulator.RunUntil does. A NaN
// horizon panics: no event time compares greater than NaN, so the run
// would never stop.
//
//scda:noalloc guarded by the AllocsPerRun checks in incremental_test.go
func (s *Simulator) Run(horizon float64) {
	if math.IsNaN(horizon) {
		panic("flowsim: Run with NaN horizon")
	}
	for {
		nextArr := math.Inf(1)
		if len(s.pending) > 0 {
			nextArr = s.pending[0].at
		}
		nextDone := s.peekCompletion()
		next := math.Min(nextArr, nextDone)
		if next > horizon || math.IsInf(next, 1) {
			// idle (or mid-transfer) until the horizon, never moving the
			// clock backwards; an infinite horizon stops at the last event
			if math.IsInf(horizon, 1) {
				s.materializeAll(s.now)
			} else if horizon > s.now {
				s.materializeAll(horizon)
				s.now = horizon
			}
			return
		}
		s.now = next
		s.addBuf = s.addBuf[:0]
		s.rmBuf = s.rmBuf[:0]
		// completions due now (bitwise ties batch into one repair)
		for s.peekCompletion() <= next {
			e := s.popCompletion()
			f := e.flow
			f.Size = 0
			f.updT = s.now
			f.done = true
			f.Finish = s.now
			s.Completed = append(s.Completed, f)
			s.rmBuf = append(s.rmBuf, f)
		}
		// arrivals due now
		for len(s.pending) > 0 && s.pending[0].at <= s.now+1e-12 {
			a := s.popArrival()
			a.flow.Start = s.now
			a.flow.updT = s.now
			s.addBuf = append(s.addBuf, a.flow)
		}
		if len(s.addBuf) == 0 && len(s.rmBuf) == 0 {
			continue
		}
		if err := s.inc.Apply(s.addBuf, s.rmBuf); err != nil {
			// AddFlow validated size/path/weight; the only way here is a
			// flow admitted twice, which is caller misuse
			panic("flowsim: " + err.Error())
		}
		changed, oldRates := s.inc.Changed()
		for i, f := range changed {
			f.advance(s.now, oldRates[i])
			f.ver++
			if f.Rate > 0 {
				s.pushCompletion(compEnt{t: s.now + f.Size/f.Rate, seq: f.seq, ver: f.ver, flow: f})
			}
		}
		if n := len(s.inc.flows); n > s.peakActive {
			s.peakActive = n
		}
	}
}

// advance materializes f's Size at time t, given the rate it has held
// since the last materialization. An infinite size stays infinite: a
// long enough interval would otherwise subtract an infinite transfer
// from it and leave NaN.
func (f *Flow) advance(t, rate float64) {
	if dt := t - f.updT; dt > 0 {
		if !math.IsInf(f.Size, 1) {
			f.Size -= rate * dt
		}
		f.updT = t
	}
}

// materializeAll brings every active flow's Size up to time t (used when a
// Run returns at the horizon, so callers observe consistent sizes).
//
//scda:noalloc
func (s *Simulator) materializeAll(t float64) {
	for _, f := range s.inc.flows {
		f.advance(t, f.Rate)
	}
}

// peekCompletion returns the earliest valid completion time, discarding
// stale heap entries (superseded by a rate change, or already done).
//
//scda:noalloc
func (s *Simulator) peekCompletion() float64 {
	for len(s.comp) > 0 {
		e := s.comp[0]
		if e.ver == e.flow.ver && !e.flow.done {
			return e.t
		}
		s.popCompletion()
	}
	return math.Inf(1)
}

// Typed 4-ary heaps: no interface boxing (container/heap pushes cost one
// allocation per event), shallower than binary, and entries are plain
// values in reused backing arrays.

//scda:noalloc steady state: the heap append is amortized pool growth
func (s *Simulator) pushArrival(a arrival) {
	s.pending = append(s.pending, a)
	i := len(s.pending) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !arrivalLess(s.pending[i], s.pending[p]) {
			break
		}
		s.pending[i], s.pending[p] = s.pending[p], s.pending[i]
		i = p
	}
}

//scda:noalloc
func (s *Simulator) popArrival() arrival {
	h := s.pending
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		best := i
		for c := 4*i + 1; c <= 4*i+4 && c < n; c++ {
			if arrivalLess(h[c], h[best]) {
				best = c
			}
		}
		if best == i {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	s.pending = h
	return top
}

func arrivalLess(a, b arrival) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

//scda:noalloc steady state: the heap append is amortized pool growth
func (s *Simulator) pushCompletion(e compEnt) {
	// Rate changes supersede completion entries via ver, leaving stale
	// garbage in the heap. Entries far past the horizon never reach the
	// top to be lazily discarded, so under heavy churn the heap would
	// grow by O(changed flows) per event without bound. Each active
	// undone flow has at most one valid entry, so once the heap exceeds
	// twice that, at least half is stale: compact in place (amortized
	// O(1) per push, allocation-free, and order-independent — validity
	// does not depend on heap position).
	if len(s.comp) > 2*len(s.inc.flows)+64 {
		w := 0
		for _, o := range s.comp {
			if o.ver == o.flow.ver && !o.flow.done {
				s.comp[w] = o
				w++
			}
		}
		s.comp = s.comp[:w]
		for i := (w - 2) / 4; i >= 0; i-- {
			s.siftComp(i)
		}
	}
	s.comp = append(s.comp, e)
	i := len(s.comp) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !compLess(s.comp[i], s.comp[p]) {
			break
		}
		s.comp[i], s.comp[p] = s.comp[p], s.comp[i]
		i = p
	}
}

//scda:noalloc
func (s *Simulator) popCompletion() compEnt {
	h := s.comp
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	s.comp = h[:n]
	s.siftComp(0)
	return top
}

//scda:noalloc
func (s *Simulator) siftComp(i int) {
	h := s.comp
	n := len(h)
	for {
		best := i
		for c := 4*i + 1; c <= 4*i+4 && c < n; c++ {
			if compLess(h[c], h[best]) {
				best = c
			}
		}
		if best == i {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

func compLess(a, b compEnt) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}
