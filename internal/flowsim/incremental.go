package flowsim

import (
	"fmt"
	"math"
	"math/bits"
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
//   - The most-constrained link comes from the live-link queue, a monotone
//     radix queue keyed by share (shareQ). It is filled at the repair's
//     first real round from the occupied links that still carry weight, so
//     a repair that only replays fills nothing and links the replayed
//     prefix drained never enter it; a link that drains later leaves when
//     its bucket is filed again.
//   - The freeze pass visits only the flows of saturated links, in flow
//     order: admitting a link sets the frontier bits of its flows this
//     repair has not frozen, and the pass takes the lowest set position
//     until none is left, so a flow on several saturated links comes up
//     once. One summary bit per 64-position word lets the pass skip empty
//     words, so a round costs its candidates plus positions/4096 word
//     reads, not positions/64. A subtraction that saturates another link
//     mid-pass sets the bits of its flows past the current position,
//     exactly as the full scan would meet them.
//   - Only links admitted this round (stamped in satStamp) are divided to
//     test a candidate's path for saturation: every live link at or below
//     the round's threshold was taken or admitted mid-pass, so an
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

	// dirty-link marks (epoch-stamped, O(touched) reset) and the dirty
	// links' shares
	mark      []uint64
	markEpoch uint64
	dirt      shareQ

	// persistent link→flows index: per-link flow lists in flow order (so
	// sorted by pos), the matching left-to-right weight sums, and the list
	// of occupied links (occPos = index+1 into occ, 0 = absent)
	linkFl  [][]*Flow
	weight0 []float64
	occ     []int32
	occPos  []int32

	// live links' shares, filled at a repair's first real round
	live   shareQ
	liveOK bool // live was filled in this repair

	// per-round state for real rounds
	satStamp []uint64 // per-link: round ID when admitted to the saturated set
	roundID  uint64
	satList  []int32 // links taken into the current round's saturated set
	// the freeze pass's frontier: bit p&63 of front[p>>6] is set while the
	// flow at position p waits for the pass, and bit w&63 of
	// frontSum[w>>6] while front[w] is non-zero. Both grow with the flow
	// list and are all zero between passes.
	front    []uint64
	frontSum []uint64

	changed    []*Flow
	changedOld []float64
	oneAdd     [1]*Flow
	oneRm      [1]*Flow
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
	for len(in.front) <= len(in.flows)>>6 {
		in.front = append(in.front, 0)
	}
	for len(in.frontSum) <= len(in.front)>>6 {
		in.frontSum = append(in.frontSum, 0)
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
	// see the type comment) and seed the dirty queue with event-path
	// links. The live-link queue waits for the first real round.
	in.dirt.reset()
	in.liveOK = false
	for _, l := range in.occ {
		sv.stamp[l] = sv.epoch
		sv.cap[l] = in.caps[l]
		sv.weight[l] = in.weight0[l]
		if in.mark[l] == me {
			in.dirt.push(sv.cap[l]/sv.weight[l], l)
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
					wt[l] -= fw
				}
			}
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
	s, _, ok := in.dirt.min(in.sv)
	return !ok || s > in.cur.rounds[r].minShare*(1+replayMargin)
}

// realRound executes one true progressive-filling round from current link
// state: take the most-constrained live link from the live-link queue,
// take every link at the round's share into the saturated set, then run
// the freeze pass in flow order over the saturated links' flows, lowest
// frontier position first — bit-identical to Solver.fill's full scan,
// because flows off every saturated link cannot freeze and saturation
// arising mid-round sets the frontier bits of the affected link's
// later-positioned flows. Flows frozen here dirty their paths. Returns
// false when no live link with a finite share remains (Solver.fill stops
// there too).
//
// The live-link queue is filled at the repair's first real round from the
// occupied links that still carry weight, so a repair whose rounds all
// replay fills nothing and links the replayed prefix drained never enter.
//
//scda:noalloc
func (in *Incremental) realRound(ep, me uint64, remaining *int) bool {
	sv := in.sv
	if !in.liveOK {
		in.live.fill(sv, in.occ)
		in.liveOK = true
	}
	minShare, argmin, ok := in.live.min(sv)
	if !ok || math.IsInf(minShare, 1) {
		return false
	}
	in.roundID++
	// take every link already at the round's share into the saturated
	// set; survivors with capacity left are pushed back after the pass
	thresh := minShare * (1 + satEps)
	in.satList = in.live.takeUpTo(sv, thresh, in.satList[:0])
	for _, l := range in.satList {
		in.admitSat(l, 0, ep)
	}
	// the per-link slices keep their length through a repair; locals spare
	// the pass a reload through in or sv after every call
	capv, wt, mark := sv.cap, sv.weight, in.mark
	stamp, rid := in.satStamp, in.roundID
	front, sum := in.front, in.frontSum
	froze := false
	for s := 0; ; {
		// the lowest frontier position: the summary names its word, and a
		// freeze adds positions only after it, so s never moves back
		for s < len(sum) && sum[s] == 0 {
			s++
		}
		if s == len(sum) {
			break
		}
		wi := s<<6 | bits.TrailingZeros64(sum[s])
		word := front[wi]
		pos := wi<<6 | bits.TrailingZeros64(word)
		if word &= word - 1; word == 0 {
			sum[s] &^= 1 << (wi & 63)
		}
		front[wi] = word
		f := in.flows[pos-1]
		// every live link at or below the threshold was admitted this
		// round (taken above or admitted mid-pass below), so only
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
			wt[l] = w
			// the flow's freeze diverges from (or extends) the recorded
			// history of every link it touches
			if mark[l] != me {
				mark[l] = me
				if w > 0 {
					in.dirt.push(c/w, int32(l))
				}
			}
			// a subtraction can saturate another link mid-pass; its flows
			// positioned after the current one join this round's pass,
			// exactly as the full scan would encounter them
			if stamp[l] != rid && w > 0 && c/w <= thresh {
				in.admitSat(int32(l), pos, ep)
			}
		}
	}
	if !froze {
		// degenerate round: the argmin carries no unfrozen flow — its
		// weight is floating-point residue (see Solver.fill); drain it
		sv.weight[argmin] = 0
	}
	for _, l := range in.satList {
		if w := sv.weight[l]; w > 0 {
			in.live.push(sv.cap[l]/w, l)
		}
	}
	return true
}

// admitSat adds link l to the round's saturated set and sets the frontier
// bits of its flows with pos > afterPos that this repair has not frozen.
// Flows at or before afterPos were already passed by this round's scan,
// so admitting them would freeze flows the full solve's single ordered
// pass had already skipped.
//
//scda:noalloc
func (in *Incremental) admitSat(l int32, afterPos int, ep uint64) {
	in.satStamp[l] = in.roundID
	fl := in.linkFl[l]
	if afterPos > 0 {
		//scda:alloc-ok the sort.Search predicate does not escape; the compiler keeps it on the stack (0 B/op per the alloc guards)
		fl = fl[sort.Search(len(fl), func(i int) bool { return fl[i].pos > afterPos }):]
	}
	front, sum := in.front, in.frontSum
	for _, f := range fl {
		if f.fz != ep {
			p := f.pos
			front[p>>6] |= 1 << (p & 63)
			sum[p>>12] |= 1 << (p >> 6 & 63)
		}
	}
}

// shareQ is a monotone radix queue of links keyed by share (Ahuja,
// Mehlhorn, Orlin & Tarjan, "Faster algorithms for the shortest path
// problem", JACM 1990), the structure internal/sim orders events with. A
// key is the float64 bits of a share, which is never negative, so keys
// order as shares do. Bucket 0 holds every entry whose key is at or below
// last, and bucket b ≥ 1 the entries above last whose highest bit
// differing from last is bit b−1. Filing every key at or below last in
// bucket 0 keeps the queue correct for pushes in any order: a link a real
// round dirties often has a share below the dirty queue's last, and a
// saturated link keeping a weight residue returns at share 0.
//
// An entry keeps the share its link had when filed. Shares only rise
// within a repair, so a stored share under-estimates, and the queue needs
// no update when a subtraction moves one: min drops the entries whose
// link drained or was not reset this repair and files again those whose
// share rose past last.
type shareQ struct {
	last    uint64
	mask    uint64 // bit b set when bucket b ≥ 1 is non-empty
	buckets [64][]shareEnt
}

// shareEnt is one queued link at the share it was filed with.
type shareEnt struct {
	share float64
	link  int32
}

// reset empties the queue and moves last back to the key of share 0.
//
//scda:noalloc
func (q *shareQ) reset() {
	q.buckets[0] = q.buckets[0][:0]
	for m := q.mask; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		q.buckets[b] = q.buckets[b][:0]
	}
	q.last, q.mask = 0, 0
}

// shareKey is the queue key of share s: its bits with the sign cleared,
// so a -0 share files as +0.
//
//scda:noalloc
func shareKey(s float64) uint64 { return math.Float64bits(s) &^ (1 << 63) }

// fill empties the queue and files every link of links that carries
// weight at its current share, with last at the least of those shares, so
// the first min finds its answer in bucket 0 without filing the rest again.
//
//scda:noalloc steady state: the bucket appends are amortized pool growth
func (q *shareQ) fill(sv *Solver, links []int32) {
	q.reset()
	all := q.buckets[0]
	least := math.Inf(1)
	for _, l := range links {
		if w := sv.weight[l]; w > 0 {
			s := sv.cap[l] / w
			all = append(all, shareEnt{s, l})
			if s < least {
				least = s
			}
		}
	}
	q.last = shareKey(least)
	n := 0
	for _, e := range all {
		if shareKey(e.share) > q.last {
			q.push(e.share, e.link) // files above bucket 0
			continue
		}
		all[n] = e
		n++
	}
	q.buckets[0] = all[:n]
}

// push files link l at share s.
//
//scda:noalloc steady state: the bucket append is amortized pool growth
func (q *shareQ) push(s float64, l int32) {
	b := 0
	if k := shareKey(s); k > q.last {
		b = bits.Len64(k^q.last) & 63
		q.mask |= 1 << b
	}
	q.buckets[b] = append(q.buckets[b], shareEnt{s, l})
}

// min returns the least current share among the queued links that were
// reset this repair and still carry weight, with its link, or ok = false
// when none is queued. It leaves in bucket 0 exactly those links whose
// current share is at or below last, each at that share.
//
//scda:noalloc
func (q *shareQ) min(sv *Solver) (share float64, link int32, ok bool) {
	for {
		if len(q.buckets[0]) == 0 {
			if q.mask == 0 {
				return 0, -1, false
			}
			q.advance(sv)
			continue
		}
		b0 := q.buckets[0]
		n, best := 0, -1
		for _, e := range b0 {
			l := e.link
			w := sv.weight[l]
			if sv.stamp[l] != sv.epoch || w <= 0 {
				continue
			}
			s := sv.cap[l] / w
			if shareKey(s) > q.last {
				q.push(s, l) // files above bucket 0
				continue
			}
			b0[n] = shareEnt{s, l}
			if best < 0 || s < b0[best].share {
				best = n
			}
			n++
		}
		q.buckets[0] = b0[:n]
		if best >= 0 {
			return b0[best].share, b0[best].link, true
		}
	}
}

// advance empties the lowest non-empty bucket b ≥ 1, drops the links that
// drained or were not reset this repair, moves last to the least current
// key among the rest, and files them again at their current shares. last
// moves only within bucket b, where it keeps the bits above b−1 that the
// higher buckets were filed against: if every share rose past the bucket,
// last stays and they file higher.
//
//scda:noalloc
func (q *shareQ) advance(sv *Solver) {
	b := bits.TrailingZeros64(q.mask)
	bq := q.buckets[b]
	q.buckets[b] = bq[:0]
	q.mask &^= 1 << b
	n, least := 0, ^uint64(0)
	for _, e := range bq {
		l := e.link
		if w := sv.weight[l]; sv.stamp[l] == sv.epoch && w > 0 {
			s := sv.cap[l] / w
			bq[n] = shareEnt{s, l}
			n++
			least = min(least, shareKey(s))
		}
	}
	if least > q.last && bits.Len64(least^q.last) == b {
		q.last = least
	}
	for _, e := range bq[:n] {
		q.push(e.share, e.link)
	}
}

// takeUpTo removes every queued link whose share is at most thresh and
// appends it to out. The bucket-0 shares must be current, as min leaves
// them; a bucket-0 entry left over is the least share and above thresh.
//
//scda:noalloc steady state: the out append is amortized pool growth
func (q *shareQ) takeUpTo(sv *Solver, thresh float64, out []int32) []int32 {
	for {
		b0 := q.buckets[0]
		n := 0
		for _, e := range b0 {
			if e.share <= thresh {
				out = append(out, e.link)
				continue
			}
			b0[n] = e
			n++
		}
		q.buckets[0] = b0[:n]
		if n > 0 {
			return out
		}
		if s, _, ok := q.min(sv); !ok || s > thresh {
			return out
		}
	}
}
