package flowsim

import (
	"fmt"
	"math"
	"sort"
)

// replayMargin is the relative share margin the repair demands between
// every dirty link and a recorded round's share before replaying the
// round. A link's share is non-decreasing under a round's subtractions
// (s' − s = w·W·(s−m)/(W·(W−w)) ≥ 0), so a dirty link clear of the round's
// share by this margin — ~1000× the fill loop's satEps, absorbing
// accumulated rounding — provably cannot saturate mid-round either.
const replayMargin = 1e-9

// trace records one progressive-filling execution so the next repair can
// replay unperturbed rounds. Per round it keeps the frozen share, and —
// via [fStart, next round's fStart) spans into the flat frozen/sat arrays
// — the flows frozen that round (in freeze order, which fixes the
// floating-point subtraction order) together with the link that triggered
// each freeze. sat additionally holds the round's argmin link (recorded
// even when it froze no flow directly), because an event on the argmin's
// path changes the round's share even if every freeze was triggered
// elsewhere.
type trace struct {
	rounds []roundRec
	frozen []*Flow
	sat    []int32
}

type roundRec struct {
	minShare float64
	fStart   int32 // span start into trace.frozen
	sStart   int32 // span start into trace.sat
}

func (tr *trace) reset() {
	tr.rounds = tr.rounds[:0]
	tr.frozen = tr.frozen[:0]
	tr.sat = tr.sat[:0]
}

func (tr *trace) beginRound(minShare float64, argmin int32) {
	tr.rounds = append(tr.rounds, roundRec{
		minShare: minShare,
		fStart:   int32(len(tr.frozen)),
		sStart:   int32(len(tr.sat)),
	})
	tr.sat = append(tr.sat, argmin)
}

func (tr *trace) freeze(f *Flow, sat int32) {
	tr.frozen = append(tr.frozen, f)
	tr.sat = append(tr.sat, sat)
}

// spans returns the frozen-flow and sat-link spans of round r.
func (tr *trace) spans(r int) (frozen []*Flow, sat []int32) {
	rd := tr.rounds[r]
	fEnd, sEnd := int32(len(tr.frozen)), int32(len(tr.sat))
	if r+1 < len(tr.rounds) {
		fEnd, sEnd = tr.rounds[r+1].fStart, tr.rounds[r+1].sStart
	}
	return tr.frozen[rd.fStart:fEnd], tr.sat[rd.sStart:sEnd]
}

// dirtEnt is a lazy min-heap entry over dirty links, keyed by the share
// the link had when pushed. Link shares are non-decreasing within a
// repair, so a stale entry under-estimates — peeks detect the mismatch and
// re-push the current share, never returning a stale minimum.
type dirtEnt struct {
	share float64
	link  int32
}

// Incremental maintains a weighted max-min allocation over a mutating flow
// set, repairing it after each add/remove batch instead of re-solving from
// scratch. The repair is exact: rates after Apply are bit-for-bit equal to
// a fresh Solver.Solve over the same flows in the same order (Flows()).
//
// Each repair records a trace of its filling rounds. The next repair
// resets each occupied link's capacity and weight from incrementally
// maintained sums (bit-identical to the accumulation a full solve would
// perform — see below) and then walks the recorded rounds,
// maintaining a set of dirty links — links whose subtraction history has
// diverged from the recorded run, seeded with the added/removed flows'
// paths. A recorded round is REPLAYED verbatim when the event provably
// cannot have touched it: all its frozen flows are still present and
// unfrozen, none of its saturated links (argmin + freeze triggers) is
// dirty, and every dirty link's current share clears the round's share by
// replayMargin. Any other round is computed as a REAL round from current
// link state, executing exactly the arithmetic, order, and tolerance of
// Solver.fill:
//
//   - The most-constrained link comes from a lazy min-heap over live links.
//     It is built at the repair's first real round from the occupied links
//     that still carry weight, so a repair that only replays builds
//     nothing and links the replayed prefix drained never enter it. Once
//     half its entries have drained it is rebuilt in one pass instead of
//     popping them one sift at a time.
//   - The freeze pass visits only the flows of saturated links, in flow
//     order: one cursor per saturated link walks that link's pos-sorted
//     flow list, skipping flows this repair already froze, and a min-heap
//     of cursors keyed by position merges the lists. A subtraction that
//     saturates another link mid-pass opens a cursor on its flows past the
//     current position, exactly as the full scan would meet them.
//   - Only links admitted this round (stamped in satStamp) are divided to
//     test a candidate's path for saturation: every live link at or below
//     the round's threshold was popped or admitted mid-pass, so an
//     unstamped link cannot be saturated.
//
// Flows frozen by real rounds dirty their paths, which is how perturbation
// propagates; a recorded flow whose freeze is skipped or altered therefore
// blocks replay (pointer stalls on its round) until it is re-frozen by a
// real round.
//
// The link→flows index and per-link weight sums are maintained
// incrementally across events, not rebuilt per repair: an add appends to
// each path link's list and adds its weight on the right of the link's
// running sum — bit-identical to a fresh left-to-right accumulation,
// because adds append to the end of the flow order — and a remove splices
// the link's list and re-sums it in order. Cost per event is therefore
// O(links + event·hops) bookkeeping plus O(resident·hops) for the replay
// walk itself, instead of the full O(rounds·flows·hops) re-solve.
//
// Flow order is kept stable (removals compact in place, adds append), so
// the full-solve scan order — which fixes the floating-point subtraction
// order — matches a fresh Solve over Flows().
type Incremental struct {
	caps  []float64 // capacities, referenced not copied; caller keeps it stable
	sv    *Solver
	flows []*Flow

	trA, trB trace
	cur, nxt *trace // double-buffered: cur is replayed, nxt is recorded

	// dirty-link marks (epoch-stamped, O(touched) reset) + lazy min-heap
	mark      []uint64
	markEpoch uint64
	dirt      []dirtEnt

	// persistent link→flows index: per-link flow lists in flow order (so
	// sorted by pos), the matching left-to-right weight sums, and the list
	// of occupied links (occPos = index+1 into occ, 0 = absent)
	linkFl  [][]*Flow
	weight0 []float64
	occ     []int32
	occPos  []int32

	// live-link heap, built at a repair's first real round (buildLive)
	// and compacted once half drained (compactLive)
	liveH   []dirtEnt // lazy min-heap over live links, by share
	liveOK  bool      // liveH was built in this repair
	drained int       // liveH entries whose link has drained since the build

	// per-round state for real rounds
	satStamp []uint64 // per-link: round ID when admitted to the saturated set
	roundID  uint64
	curs     []cursor // cursor min-heap by the position under each cursor
	satList  []int32  // links popped into the current round's saturated set

	changed    []*Flow
	changedOld []float64
	oneAdd     [1]*Flow
	oneRm      [1]*Flow
}

// cursor walks one saturated link's flow list during a real round's
// freeze pass: idx indexes linkFl[link], and pos caches that flow's
// position, the cursor heap's key.
type cursor struct {
	pos  int
	link int32
	idx  int32
}

// NewIncremental creates an incremental solver over fixed link capacities.
// The slice is referenced, not copied; the caller must not mutate it.
func NewIncremental(capacities []float64) *Incremental {
	in := &Incremental{
		caps:     capacities,
		sv:       NewSolver(len(capacities)),
		mark:     make([]uint64, len(capacities)),
		linkFl:   make([][]*Flow, len(capacities)),
		weight0:  make([]float64, len(capacities)),
		occPos:   make([]int32, len(capacities)),
		satStamp: make([]uint64, len(capacities)),
	}
	in.cur, in.nxt = &in.trA, &in.trB
	return in
}

// Flows returns the current active flow list in solver order. Callers must
// not mutate it; a fresh Solver.Solve over this exact slice reproduces the
// incremental rates bit for bit.
func (in *Incremental) Flows() []*Flow { return in.flows }

// Changed returns the flows whose rate was altered by the last Apply
// (including flows added by it) and, index-aligned, the rate each had
// before the event (NaN for added flows). Both slices are valid until the
// next Apply.
func (in *Incremental) Changed() ([]*Flow, []float64) { return in.changed, in.changedOld }

// Reset drops all flows and recorded state, keeping allocated capacity.
func (in *Incremental) Reset() {
	for _, f := range in.flows {
		f.pos = 0
	}
	in.flows = in.flows[:0]
	for _, l := range in.occ {
		fl := in.linkFl[l]
		for i := range fl {
			fl[i] = nil
		}
		in.linkFl[l] = fl[:0]
		in.weight0[l] = 0
		in.occPos[l] = 0
	}
	in.occ = in.occ[:0]
	in.cur.reset()
	in.nxt.reset()
	in.changed = in.changed[:0]
	in.changedOld = in.changedOld[:0]
}

// Add admits one flow and repairs the allocation.
func (in *Incremental) Add(f *Flow) error {
	in.oneAdd[0] = f
	return in.Apply(in.oneAdd[:], nil)
}

// Remove retires one flow and repairs the allocation.
func (in *Incremental) Remove(f *Flow) error {
	in.oneRm[0] = f
	return in.Apply(nil, in.oneRm[:])
}

// Apply atomically admits add and retires remove, then repairs the
// allocation. On error nothing is changed. Duplicate adds, removes of
// non-active flows, and flows appearing twice across the two lists are
// rejected.
//
//scda:noalloc steady state: the flow/occupied-link appends are amortized pool growth
func (in *Incremental) Apply(add, remove []*Flow) error {
	if err := in.validate(add, remove); err != nil {
		return err
	}
	in.markEpoch++
	me := in.markEpoch
	for _, f := range remove {
		// splice the flow out of each path link's list while its claimed
		// pos (negated by validate) still identifies it, and restore the
		// link's weight sum by re-summing the list in order — the exact
		// accumulation a fresh solve would perform
		for _, l := range f.Path {
			in.mark[l] = me
			in.unlink(int32(l), -f.pos)
		}
	}
	for _, f := range add {
		for _, l := range f.Path {
			in.mark[l] = me
		}
		// NaN ≠ anything, so added flows always land in the changed list
		f.Rate = math.NaN()
	}
	if len(remove) > 0 {
		// order-preserving compaction keeps the full-solve scan order
		w := 0
		for _, f := range in.flows {
			if f.pos < 0 { // claimed for removal by validate
				f.pos = 0
				continue
			}
			in.flows[w] = f
			w++
			f.pos = w
		}
		in.flows = in.flows[:w]
	}
	for _, f := range add {
		in.flows = append(in.flows, f)
		f.pos = len(in.flows)
		for _, l := range f.Path {
			if in.occPos[l] == 0 {
				in.occ = append(in.occ, int32(l))
				in.occPos[l] = int32(len(in.occ))
			}
			in.linkFl[l] = append(in.linkFl[l], f)
			// appending on the right of the running sum is bit-identical
			// to a fresh left-to-right accumulation over the new list
			in.weight0[l] += f.Weight
		}
	}
	in.repair()
	return nil
}

// unlink removes the flow claimed at position pos (pre-compaction, so the
// lists' |pos| order is intact) from link l's flow list, re-sums the
// link's weight in list order, and retires the link from the occupied set
// when its list empties.
//
//scda:noalloc
func (in *Incremental) unlink(l int32, pos int) {
	fl := in.linkFl[l]
	// claimed flows carry negated pos, so compare magnitudes
	//scda:alloc-ok the sort.Search predicate does not escape; the compiler keeps it on the stack (0 B/op per the alloc guards)
	i := sort.Search(len(fl), func(i int) bool {
		p := fl[i].pos
		if p < 0 {
			p = -p
		}
		return p >= pos
	})
	copy(fl[i:], fl[i+1:])
	fl[len(fl)-1] = nil
	fl = fl[:len(fl)-1]
	in.linkFl[l] = fl
	if len(fl) == 0 {
		in.weight0[l] = 0
		p := in.occPos[l]
		last := in.occ[len(in.occ)-1]
		in.occ[p-1] = last
		in.occPos[last] = p
		in.occ = in.occ[:len(in.occ)-1]
		in.occPos[l] = 0
		return
	}
	s := 0.0
	for _, g := range fl {
		s += g.Weight
	}
	in.weight0[l] = s
}

// validate checks the batch atomically, using pos as a claim marker so
// duplicates within and across the two lists are caught: an active flow
// has pos = index+1, an inactive one pos = 0; claims flip the sign
// (removes) or set -1 (adds). On error all claims are rolled back.
func (in *Incremental) validate(add, remove []*Flow) error {
	rollback := func(na, nr int) {
		for _, f := range add[:na] {
			f.pos = 0
		}
		for _, f := range remove[:nr] {
			f.pos = -f.pos
		}
	}
	for i, f := range remove {
		if f.pos <= 0 {
			rollback(0, i)
			if f.pos < 0 {
				return fmt.Errorf("incremental: flow %d removed twice", f.ID)
			}
			return fmt.Errorf("incremental: flow %d not active", f.ID)
		}
		f.pos = -f.pos
	}
	for i, f := range add {
		if f.pos != 0 {
			rollback(i, len(remove))
			return fmt.Errorf("incremental: flow %d already active", f.ID)
		}
		if err := checkFlow(f, len(in.caps)); err != nil {
			rollback(i, len(remove))
			return fmt.Errorf("incremental: %w", err)
		}
		f.pos = -1
	}
	return nil
}

// checkFlow rejects a flow no allocation can take: an empty path, a path
// link outside the nLinks capacities, or a weight that is not a positive
// finite number (a NaN share never settles, and an infinite weight makes
// every rate on its links 0·∞).
func checkFlow(f *Flow, nLinks int) error {
	if len(f.Path) == 0 {
		return fmt.Errorf("flow %d empty path", f.ID)
	}
	for _, l := range f.Path {
		if l < 0 || int(l) >= nLinks {
			return fmt.Errorf("flow %d path link %d outside the %d links", f.ID, l, nLinks)
		}
	}
	if !(f.Weight > 0) || math.IsInf(f.Weight, 1) {
		return fmt.Errorf("flow %d weight %v", f.ID, f.Weight)
	}
	return nil
}

// repair re-establishes the exact max-min allocation after the flow list
// changed: replay clean recorded rounds, recompute perturbed ones.
//
//scda:noalloc
func (in *Incremental) repair() {
	sv := in.sv
	me := in.markEpoch
	sv.ensure(len(in.caps))
	sv.epoch++
	ep := fillEpochs.Add(1)
	in.changed = in.changed[:0]
	in.changedOld = in.changedOld[:0]

	// Reset each occupied link's state from the maintained weight sums
	// (bit-identical to the fresh accumulation a full solve would do —
	// see the type comment) and seed the dirty heap with event-path links.
	// The live-link heap waits for the first real round.
	in.dirt = in.dirt[:0]
	in.liveOK = false
	for _, l := range in.occ {
		sv.stamp[l] = sv.epoch
		sv.cap[l] = in.caps[l]
		sv.weight[l] = in.weight0[l]
		if in.mark[l] == me {
			in.pushDirt(dirtEnt{sv.cap[l] / sv.weight[l], l})
		}
	}

	in.nxt.reset()
	capv, wt := sv.cap, sv.weight
	remaining := len(in.flows)
	r := 0 // pointer into cur.rounds
	for remaining > 0 {
		// advance past recorded rounds whose every flow is consumed:
		// frozen this repair (replayed or re-frozen by a real round,
		// which dirtied its links if the bits differed) or removed
		// (pos == 0; its links are dirty by construction)
		for r < len(in.cur.rounds) {
			span, _ := in.cur.spans(r)
			done := true
			for _, f := range span {
				if f.pos != 0 && f.fz != ep {
					done = false
					break
				}
			}
			if !done {
				break
			}
			r++
		}
		if r < len(in.cur.rounds) && in.replayable(r, ep, me) {
			m := in.cur.rounds[r].minShare
			span, sat := in.cur.spans(r)
			in.nxt.beginRound(m, sat[0])
			drains := 0
			for i, f := range span {
				// a replayed freeze rewrites the rate the flow already has
				// (same weight, same recorded share), so the comparison
				// below is a no-op in practice — kept for robustness
				if nr := f.Weight * m; f.Rate != nr {
					in.changed = append(in.changed, f)
					in.changedOld = append(in.changedOld, f.Rate)
					f.Rate = nr
				}
				f.fz = ep
				remaining--
				in.nxt.freeze(f, sat[i+1])
				rate, fw := f.Rate, f.Weight
				for _, l := range f.Path {
					c := capv[l] - rate
					if c < 0 {
						c = 0
					}
					capv[l] = c
					w := wt[l] - fw
					if w <= 0 && wt[l] > 0 {
						drains++
					}
					wt[l] = w
				}
			}
			in.drained += drains // meaningful once the live heap is built
			r++
			continue
		}
		if !in.realRound(ep, me, &remaining) {
			// no live link with a finite share left: leftover flows keep
			// rate 0, exactly as the full solve leaves flows on
			// unconstrained links
			for _, f := range in.flows {
				if f.fz != ep && f.Rate != 0 {
					// NaN (an added flow) never compares equal to 0
					in.changed = append(in.changed, f)
					in.changedOld = append(in.changedOld, f.Rate)
					f.Rate = 0
				}
			}
			break
		}
	}
	in.cur, in.nxt = in.nxt, in.cur
}

// replayable reports whether recorded round r provably unfolds exactly as
// recorded: every frozen flow still present and unfrozen, every saturated
// link clean, and every dirty link's share clear of the round's share by
// replayMargin (shares are non-decreasing within a repair, so this holds
// through the round's own subtractions too).
//
//scda:noalloc
func (in *Incremental) replayable(r int, ep uint64, me uint64) bool {
	span, sat := in.cur.spans(r)
	for _, f := range span {
		if f.pos == 0 || f.fz == ep {
			return false
		}
	}
	for _, l := range sat {
		if in.mark[l] == me {
			return false
		}
	}
	return in.dirtyMin(me) > in.cur.rounds[r].minShare*(1+replayMargin)
}

// dirtyMin returns the minimum current share among live dirty links,
// repairing stale heap entries on the way (stale keys under-estimate, so
// they are popped and re-pushed with the current share).
//
//scda:noalloc
func (in *Incremental) dirtyMin(me uint64) float64 {
	sv := in.sv
	for len(in.dirt) > 0 {
		e := in.dirt[0]
		l := e.link
		if sv.stamp[l] != sv.epoch || sv.weight[l] <= 0 {
			in.popDirt()
			continue
		}
		s := sv.cap[l] / sv.weight[l]
		if s != e.share {
			in.popDirt()
			in.pushDirt(dirtEnt{s, l})
			continue
		}
		return s
	}
	return math.Inf(1)
}

// realRound executes one true progressive-filling round from current link
// state: take the most-constrained live link from the live-link heap
// (building it at the repair's first real round, compacting it once half
// drained), pop every link at the round's share into the saturated set,
// then run the freeze pass in flow order over the saturated links' flows,
// merged by cursor — bit-identical to Solver.fill's full scan, because
// flows off every saturated link cannot freeze and saturation arising
// mid-round opens a cursor on the affected link's later-positioned flows.
// Flows frozen here dirty their paths. Returns false when no live link
// with a finite share remains (Solver.fill stops there too).
//
//scda:noalloc
func (in *Incremental) realRound(ep, me uint64, remaining *int) bool {
	sv := in.sv
	if !in.liveOK {
		in.buildLive()
	} else if 2*in.drained >= len(in.liveH) && in.drained > 0 {
		in.compactLive()
	}
	minShare, argmin, ok := in.liveMin()
	if !ok || math.IsInf(minShare, 1) {
		return false
	}
	in.roundID++
	in.curs = in.curs[:0]
	in.satList = in.satList[:0]
	// pop every link already at the round's share into the saturated set;
	// survivors with capacity left are re-pushed after the freeze pass
	thresh := minShare * (1 + satEps)
	for {
		s, l, ok := in.liveMin()
		if !ok || s > thresh {
			break
		}
		in.popLive()
		in.satList = append(in.satList, l)
		in.admitSat(l, 0, ep)
	}
	// the per-link slices keep their length through a repair; locals spare
	// the pass a reload through in or sv after every call
	capv, wt, mark := sv.cap, sv.weight, in.mark
	stamp, rid := in.satStamp, in.roundID
	froze := false
	lastPos := 0
	drains := 0
	for len(in.curs) > 0 {
		f := in.popCand(ep)
		// a flow on two saturated links comes up once per cursor, back to
		// back; the first visit decided it
		if f.pos == lastPos || f.fz == ep {
			continue
		}
		lastPos = f.pos
		// every live link at or below the threshold was admitted this
		// round (popped above or admitted mid-pass below), so only
		// stamped links need the division
		sat := int32(-1)
		for _, l := range f.Path {
			if stamp[l] == rid && wt[l] > 0 && capv[l]/wt[l] <= thresh {
				sat = int32(l)
				break
			}
		}
		if sat < 0 {
			continue
		}
		if !froze {
			in.nxt.beginRound(minShare, argmin)
			froze = true
		}
		if nr := f.Weight * minShare; f.Rate != nr {
			in.changed = append(in.changed, f)
			in.changedOld = append(in.changedOld, f.Rate)
			f.Rate = nr
		}
		f.fz = ep
		*remaining--
		in.nxt.freeze(f, sat)
		rate, fw := f.Rate, f.Weight
		for _, l := range f.Path {
			c := capv[l] - rate
			if c < 0 {
				c = 0
			}
			capv[l] = c
			w := wt[l] - fw
			if w <= 0 && wt[l] > 0 {
				drains++
			}
			wt[l] = w
			// the flow's freeze diverges from (or extends) the recorded
			// history of every link it touches
			if mark[l] != me {
				mark[l] = me
				if w > 0 {
					in.pushDirt(dirtEnt{c / w, int32(l)})
				}
			}
			// a subtraction can saturate another link mid-pass; its flows
			// positioned after the current one join this round's pass,
			// exactly as the full scan would encounter them
			if stamp[l] != rid && w > 0 && c/w <= thresh {
				in.admitSat(int32(l), lastPos, ep)
			}
		}
	}
	if !froze {
		// degenerate round: the argmin carries no unfrozen flow — its
		// weight is floating-point residue (see Solver.fill); drain it
		sv.weight[argmin] = 0
	}
	for _, l := range in.satList {
		if sv.weight[l] > 0 {
			in.pushLive(dirtEnt{sv.cap[l] / sv.weight[l], l})
		} else if froze {
			// drained by this round's subtractions while out of the heap
			drains--
		}
	}
	in.drained += drains
	return true
}

// buildLive builds the live-link heap from the occupied links that still
// carry weight, keyed by their current shares. It runs at a repair's
// first real round, so a repair whose rounds all replay builds nothing and
// links the replayed prefix drained never enter.
//
//scda:noalloc steady state: the heap append is amortized pool growth
func (in *Incremental) buildLive() {
	sv := in.sv
	h := in.liveH[:0]
	for _, l := range in.occ {
		if w := sv.weight[l]; w > 0 {
			h = append(h, dirtEnt{sv.cap[l] / w, l})
		}
	}
	in.heapLive(h)
	in.liveOK = true
}

// compactLive rebuilds the live-link heap once half its entries have
// drained (the compaction rule Simulator.pushCompletion uses): one pass
// keeps the entries whose links still carry weight, re-keyed to their
// current shares, instead of one sift per drained entry as it surfaces.
// It runs between rounds, when every live link has an entry, so the
// result is the heap buildLive would make.
//
//scda:noalloc
func (in *Incremental) compactLive() {
	sv := in.sv
	h := in.liveH
	n := 0
	for _, e := range h {
		if w := sv.weight[e.link]; w > 0 {
			h[n] = dirtEnt{sv.cap[e.link] / w, e.link}
			n++
		}
	}
	in.heapLive(h[:n])
}

// heapLive installs h as the live-link heap, heapified, with no drained
// entry.
//
//scda:noalloc
func (in *Incremental) heapLive(h []dirtEnt) {
	in.liveH = h
	for i := len(h)/2 - 1; i >= 0; i-- {
		in.siftLive(i)
	}
	in.drained = 0
}

// liveMin peeks the live-link heap, lazily discarding drained links and
// re-keying entries whose share moved since they were pushed (shares only
// rise within a repair, so a stale key under-estimates), and returns the
// current global minimum share with its link.
//
//scda:noalloc
func (in *Incremental) liveMin() (float64, int32, bool) {
	sv := in.sv
	for len(in.liveH) > 0 {
		e := in.liveH[0]
		l := e.link
		if sv.weight[l] <= 0 {
			in.popLive()
			in.drained--
			continue
		}
		s := sv.cap[l] / sv.weight[l]
		if s != e.share {
			in.liveH[0].share = s
			in.siftLive(0)
			continue
		}
		return e.share, l, true
	}
	return 0, -1, false
}

// admitSat adds link l to the round's saturated set and opens a cursor on
// its first flow with pos > afterPos that this repair has not frozen.
// Flows at or before afterPos were already passed by this round's scan,
// so admitting them would freeze flows the full solve's single ordered
// pass had already skipped.
//
//scda:noalloc
func (in *Incremental) admitSat(l int32, afterPos int, ep uint64) {
	in.satStamp[l] = in.roundID
	fl := in.linkFl[l]
	i := 0
	if afterPos > 0 {
		//scda:alloc-ok the sort.Search predicate does not escape; the compiler keeps it on the stack (0 B/op per the alloc guards)
		i = sort.Search(len(fl), func(i int) bool { return fl[i].pos > afterPos })
	}
	for i < len(fl) && fl[i].fz == ep {
		i++
	}
	if i < len(fl) {
		in.pushCur(cursor{pos: fl[i].pos, link: l, idx: int32(i)})
	}
}

// popCand returns the flow under the lowest cursor and moves that cursor
// to the next flow of its list this repair has not frozen, dropping the
// cursor at the list's end.
//
//scda:noalloc
func (in *Incremental) popCand(ep uint64) *Flow {
	h := in.curs
	c := &h[0]
	fl := in.linkFl[c.link]
	f := fl[c.idx]
	i := int(c.idx) + 1
	for i < len(fl) && fl[i].fz == ep {
		i++
	}
	if i < len(fl) {
		c.idx = int32(i)
		c.pos = fl[i].pos
	} else {
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		in.curs = h
	}
	// sift the root down (binary heap by position; a round holds few
	// cursors)
	n := len(h)
	for j := 0; ; {
		best, l, r := j, 2*j+1, 2*j+2
		if l < n && h[l].pos < h[best].pos {
			best = l
		}
		if r < n && h[r].pos < h[best].pos {
			best = r
		}
		if best == j {
			break
		}
		h[j], h[best] = h[best], h[j]
		j = best
	}
	return f
}

//scda:noalloc steady state: the heap append is amortized pool growth
func (in *Incremental) pushCur(c cursor) {
	h := append(in.curs, c)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].pos <= h[i].pos {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	in.curs = h
}

// Dirty-link min-heap by pushed share.

//scda:noalloc steady state: the heap append is amortized pool growth
func (in *Incremental) pushDirt(e dirtEnt) {
	h := append(in.dirt, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].share <= h[i].share {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	in.dirt = h
}

//scda:noalloc
func (in *Incremental) popDirt() {
	h := in.dirt
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		best, l, r := i, 2*i+1, 2*i+2
		if l < n && h[l].share < h[best].share {
			best = l
		}
		if r < n && h[r].share < h[best].share {
			best = r
		}
		if best == i {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	in.dirt = h
}

// Live-link min-heap by share (lazy; see liveMin).

//scda:noalloc steady state: the heap append is amortized pool growth
func (in *Incremental) pushLive(e dirtEnt) {
	h := append(in.liveH, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].share <= h[i].share {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	in.liveH = h
}

//scda:noalloc
func (in *Incremental) popLive() {
	h := in.liveH
	n := len(h) - 1
	h[0] = h[n]
	in.liveH = h[:n]
	in.siftLive(0)
}

//scda:noalloc
func (in *Incremental) siftLive(i int) {
	h := in.liveH
	n := len(h)
	for {
		best, l, r := i, 2*i+1, 2*i+2
		if l < n && h[l].share < h[best].share {
			best = l
		}
		if r < n && h[r].share < h[best].share {
			best = r
		}
		if best == i {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}
