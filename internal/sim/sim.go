// Package sim provides the discrete-event simulation core used by every
// SCDA substrate: a time-ordered event loop, timers, and a deterministic
// pseudo-random number generator so that every experiment is reproducible
// from a seed.
//
// The engine is single-threaded by design. Datacenter simulations of the
// scale used in the SCDA paper (thousands of flows, millions of packet
// events) are dominated by event-queue operations and cache behaviour, not
// by parallelism; a single goroutine is both faster and easier to make
// deterministic than a parallel event queue. Parallelism in this
// repository lives one level up: independent experiment runs (one per
// figure, one per seed) execute concurrently.
//
// The event queue is allocation-free in steady state: event state lives in
// a flat arena owned by the Simulator, recycled through a free list, and
// ordered by a monotone radix queue of arena indices (Ahuja, Mehlhorn,
// Orlin & Tarjan, "Faster algorithms for the shortest path problem", JACM
// 1990). It is valid because no event is ever scheduled before Now. An
// entry's key is the bit pattern of its time with the sign cleared, which
// orders as the time does, and the entry sits in the bucket named by the
// highest bit in which its key differs from the key of the last fired
// event. Taking the next event scans only the lowest non-empty bucket and
// spreads the rest of it over lower buckets, so an entry moves a few times
// in its life instead of paying a sift from the root per fired event.
//
// Every event takes the next sequence number when it is scheduled, and
// events with equal time fire in sequence order (FIFO tie-break), which
// keeps runs deterministic: the bucket at the last fired time keeps its
// entries in sequence order, and the scan of a higher bucket breaks ties
// by sequence, so the queue fires in exactly (time, sequence) order.
// There is no size threshold below which another structure takes over.
// Taking the only entry of the lowest bucket skips the redistribution, so
// the radix queue costs no more than a small heap with a dozen events
// pending (the fig. 6 shape), and a second queue would be a second firing
// order to keep identical.
//
// The queue holds individual events and lane heads. A Lane is a FIFO for a
// stream whose times never decrease in push order — a link's far-end
// arrivals, a sorted request list — and keeps only its earliest entry in
// the queue, so a stream of any length costs the queue one slot. Lane
// entries keep the (time, sequence) key they would have had in the queue,
// so the firing order is the same as scheduling each one directly.
//
// Reserve sets a key aside without queueing anything: it takes the
// sequence number an event scheduled at the same moment would take, so
// every later event keeps the key it would have had. Reached answers
// whether an event under that key would already have fired, and AtMarkArg
// queues one under it while it has not. An unqueued reservation never
// fires, never counts in Processed or Len, and never moves the clock. A
// caller whose event would do nothing observable when it fires (netsim's
// transmit-complete on a port with nothing queued) reserves it instead,
// and settles its effect when it next reads the state.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is simulation time in seconds. float64 seconds keeps the arithmetic
// in the paper's units (rates in bits/sec, intervals in sec) direct.
type Time = float64

// eventSlot is the arena-resident state of one scheduled callback. Slots
// are recycled: gen increments on every reuse so stale Event handles can
// detect that their slot now belongs to a different logical event.
type eventSlot struct {
	at    Time
	seq   uint64
	fn    func()
	fnArg func(any)
	arg   any
	gen   uint32
	idx   int32 // position in its queue bucket, -1 when not queued
	lane  int32 // 1 + index in Simulator.lanes of the owning lane; 0 for a plain event
	next  int32 // the owning lane's next entry, -1 at its tail
}

// Event is a cancellable handle to a scheduled callback. It is a small
// value (no heap allocation per schedule); the zero Event is valid and
// behaves like an event that already fired: Cancel is a no-op and Pending
// reports false. Handles stay safe after their event fires or is
// cancelled — the underlying slot's generation changes on reuse, so a
// stale handle can never affect a later event.
type Event struct {
	s   *Simulator
	id  int32
	gen uint32
}

// Cancel prevents a pending event from firing. Cancelling an event that has
// already fired or been cancelled is a no-op.
//
//scda:noalloc
func (e Event) Cancel() {
	if e.s == nil {
		return
	}
	slot := &e.s.arena[e.id]
	if slot.gen != e.gen || slot.idx < 0 {
		return
	}
	e.s.remove(e.id)
	e.s.recycle(e.id)
}

// Pending reports whether the event is still queued and not cancelled.
//
//scda:noalloc
func (e Event) Pending() bool {
	if e.s == nil {
		return false
	}
	slot := &e.s.arena[e.id]
	return slot.gen == e.gen && slot.idx >= 0
}

// At returns the scheduled firing time, or NaN if the event has already
// fired or been cancelled.
func (e Event) At() Time {
	if !e.Pending() {
		return math.NaN()
	}
	return e.s.arena[e.id].at
}

// Simulator owns the virtual clock, the event arena and the pending-event
// queue.
type Simulator struct {
	now   Time
	seq   uint64
	arena []eventSlot
	free  []int32 // recycled arena indices
	// The radix queue. last is the key of the clock when an event last
	// fired. Bucket b ≥ 1 holds, unordered, the entries whose highest bit
	// differing from last is bit b-1 (bits.Len64(key^last) == b), and bit
	// b of mask is set when it is non-empty. Bucket 0 holds the entries
	// whose key is last, in sequence order from head0.
	last    uint64
	mask    uint64
	buckets [64][]int32
	head0   int
	running bool
	stopped bool
	lanes   []*Lane
	// laneWaiting counts the lane entries behind their lane's head: they
	// are pending but not in the queue.
	laneWaiting int
	// Reached answers from these. Every key before Now has been reached,
	// and so has every key at Now below nowSeq: one past the sequence
	// number of the event that fired last, or the next sequence number
	// when a RunUntil returned unstopped at Now. Every key below drainSeq
	// has been reached too: a Run that was not stopped drained them all.
	nowSeq   uint64
	drainSeq uint64

	// Processed counts events executed since construction; useful for
	// progress reporting and for benchmark metrics (events/sec).
	Processed uint64
}

// New returns an empty simulator with the clock at zero.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current simulation time.
func (s *Simulator) Now() Time { return s.now }

// Len returns the number of queued events, lane entries included.
func (s *Simulator) Len() int {
	n := len(s.buckets[0]) - s.head0 + s.laneWaiting
	for m := s.mask; m != 0; m &= m - 1 {
		n += len(s.buckets[bits.TrailingZeros64(m)])
	}
	return n
}

// Mark is the (time, sequence) key of an event set aside by Reserve. The
// zero Mark is the key of the first event scheduled at time zero.
type Mark struct {
	at  Time
	seq uint64
}

// Reserve takes the key that an event scheduled at absolute time t now
// would take, the next sequence number, and queues nothing, with the same
// panics as At on a past or non-finite time. The key can be queued once,
// with AtMarkArg, until Reached reports it.
//
//scda:noalloc
func (s *Simulator) Reserve(t Time) Mark {
	if !(t >= s.now && t <= math.MaxFloat64) { // false for NaN too
		s.badTime(t)
	}
	s.seq++
	return Mark{at: t, seq: s.seq - 1}
}

// badTime panics on a time that Reserve and alloc refuse.
//
//scda:noalloc
func (s *Simulator) badTime(t Time) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	panic(fmt.Sprintf("sim: scheduling event at non-finite time %v", t))
}

// Reached reports whether an event queued under m would already have
// fired: its key comes before, or is, the key of the event that fired
// last, or a RunUntil that was not stopped has run through its time. A
// cut before Now reaches nothing new.
//
//scda:noalloc
func (s *Simulator) Reached(m Mark) bool {
	return m.at < s.now || m.at == s.now && m.seq < s.nowSeq || m.seq < s.drainSeq
}

// AtMarkArg schedules fn(arg) under the key Reserve returned as m, so it
// fires exactly where an event scheduled at the reservation would have.
// Queueing at a reached key panics: that event would already have fired.
//
//scda:noalloc
func (s *Simulator) AtMarkArg(m Mark, fn func(any), arg any) Event {
	if s.Reached(m) {
		panic(fmt.Sprintf("sim: queueing at reached key (%v, %d), now %v", m.at, m.seq, s.now))
	}
	id := s.take(m)
	slot := &s.arena[id]
	slot.fnArg = fn
	slot.arg = arg
	s.place(id)
	return Event{s: s, id: id, gen: slot.gen}
}

// alloc takes a slot stamped with t and the next FIFO sequence number. It
// checks t as Reserve does, without the call.
//
//scda:noalloc
func (s *Simulator) alloc(t Time) int32 {
	if !(t >= s.now && t <= math.MaxFloat64) {
		s.badTime(t)
	}
	s.seq++
	return s.take(Mark{at: t, seq: s.seq - 1})
}

// take takes a slot from the free list (or grows the arena), stamps it
// with m's key, and returns its index.
//
//scda:noalloc steady state: the arena append is amortized pool growth
func (s *Simulator) take(m Mark) int32 {
	var id int32
	if k := len(s.free); k > 0 {
		id = s.free[k-1]
		s.free = s.free[:k-1]
	} else {
		s.arena = append(s.arena, eventSlot{})
		id = int32(len(s.arena) - 1)
	}
	slot := &s.arena[id]
	slot.at = m.at
	slot.seq = m.seq
	return id
}

// recycle returns a slot to the free list. Bumping gen invalidates every
// outstanding handle to the slot's previous occupant.
//
//scda:noalloc
func (s *Simulator) recycle(id int32) {
	slot := &s.arena[id]
	slot.gen++
	slot.fn = nil
	slot.fnArg = nil
	slot.arg = nil
	slot.idx = -1
	slot.lane = 0
	s.free = append(s.free, id)
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it is always a logic bug in the caller, and silently clamping would
// corrupt causality.
//
//scda:noalloc
func (s *Simulator) At(t Time, fn func()) Event {
	id := s.alloc(t)
	s.arena[id].fn = fn
	s.place(id)
	return Event{s: s, id: id, gen: s.arena[id].gen}
}

// AtArg schedules fn(arg) to run at absolute time t. It exists so hot
// paths (one event per packet) can reuse a single long-lived callback and
// pass per-event state through arg instead of allocating a closure per
// schedule; boxing a pointer into arg does not allocate.
//
//scda:noalloc
func (s *Simulator) AtArg(t Time, fn func(any), arg any) Event {
	id := s.alloc(t)
	slot := &s.arena[id]
	slot.fnArg = fn
	slot.arg = arg
	s.place(id)
	return Event{s: s, id: id, gen: slot.gen}
}

// After schedules fn to run d seconds from now.
//
//scda:noalloc
func (s *Simulator) After(d Time, fn func()) Event {
	return s.At(s.now+d, fn)
}

// AfterArg schedules fn(arg) to run d seconds from now.
//
//scda:noalloc
func (s *Simulator) AfterArg(d Time, fn func(any), arg any) Event {
	return s.AtArg(s.now+d, fn, arg)
}

// key maps a time to its queue key: the float64 bits with the sign bit
// cleared. A time is never negative, so keys order as times do and 64
// buckets suffice; -0 files as +0, with which it compares equal.
//
//scda:noalloc
func key(t Time) uint64 { return math.Float64bits(t) &^ (1 << 63) }

// place files queued entry id in its bucket.
//
//scda:noalloc steady state: the bucket append is amortized pool growth
func (s *Simulator) place(id int32) {
	b := bits.Len64(key(s.arena[id].at) ^ s.last)
	if b == 0 {
		s.place0(id)
		return
	}
	q := append(s.buckets[b], id)
	s.arena[id].idx = int32(len(q) - 1)
	s.buckets[b] = q
	s.mask |= 1 << b
}

// place0 files id in bucket 0, after every entry with a smaller sequence
// number, scanning from the tail: a fresh push holds the newest number and
// stays at the tail, while a lane's next entry or a tie redistributed from
// a higher bucket may move up.
//
//scda:noalloc steady state: the bucket append is amortized pool growth
func (s *Simulator) place0(id int32) {
	q := s.buckets[0]
	if len(q) == cap(q) && s.head0 > 0 {
		// Reuse the taken prefix before growing: under a chain of
		// zero-delay events bucket 0 never empties.
		q = q[:copy(q, q[s.head0:])]
		for i, e := range q {
			s.arena[e].idx = int32(i)
		}
		s.head0 = 0
	}
	q = append(q, id)
	seq := s.arena[id].seq
	i := len(q) - 1
	for ; i > s.head0 && s.arena[q[i-1]].seq > seq; i-- {
		q[i] = q[i-1]
		s.arena[q[i]].idx = int32(i)
	}
	q[i] = id
	s.arena[id].idx = int32(i)
	s.buckets[0] = q
}

// remove takes queued entry id out of its bucket eagerly (eager deletion
// keeps the queue small under timer churn — cancel/re-arm per ACK is the
// common case in the transports). Bucket 0 keeps its sequence order;
// higher buckets are unordered, so the last entry fills the hole.
//
//scda:noalloc
func (s *Simulator) remove(id int32) {
	slot := &s.arena[id]
	i := slot.idx
	b := bits.Len64(key(slot.at) ^ s.last)
	q := s.buckets[b]
	n := len(q) - 1
	if b == 0 {
		copy(q[i:], q[i+1:])
		q = q[:n]
		for j := int(i); j < n; j++ {
			s.arena[q[j]].idx = int32(j)
		}
		if s.head0 == n {
			q, s.head0 = q[:0], 0
		}
		s.buckets[0] = q
		return
	}
	if int(i) != n {
		q[i] = q[n]
		s.arena[q[i]].idx = i
	}
	s.buckets[b] = q[:n]
	if n == 0 {
		s.mask &^= 1 << b
	}
}

// next removes and returns the pending entry with the least (time,
// sequence) key, or -1 if the queue is empty or that entry's time is after
// end. Bucket 0, when it holds entries, starts with the least. Otherwise
// the least is in the lowest non-empty bucket; taking it moves last to its
// key, which leaves every higher bucket's entries where they belong and
// spreads the rest of its own bucket over lower ones. last moves only when
// an entry is taken, so after a cut before the least entry a push at any
// time from Now on still files correctly.
//
//scda:noalloc
func (s *Simulator) next(end Time) int32 {
	if q := s.buckets[0]; s.head0 < len(q) {
		id := q[s.head0]
		if s.arena[id].at > end {
			return -1
		}
		if s.head0++; s.head0 == len(q) {
			s.buckets[0], s.head0 = q[:0], 0
		}
		return id
	}
	if s.mask == 0 {
		return -1
	}
	b := bits.TrailingZeros64(s.mask)
	q := s.buckets[b]
	m := q[0]
	mk, mseq := key(s.arena[m].at), s.arena[m].seq
	for _, e := range q[1:] {
		slot := &s.arena[e]
		if k := key(slot.at); k < mk || k == mk && slot.seq < mseq {
			m, mk, mseq = e, k, slot.seq
		}
	}
	if s.arena[m].at > end {
		return -1
	}
	s.last = mk
	s.mask &^= 1 << b
	s.buckets[b] = q[:0]
	if len(q) > 1 {
		for _, e := range q {
			if e != m {
				s.place(e)
			}
		}
	}
	return m
}

// Stop halts the run loop after the current event completes.
func (s *Simulator) Stop() { s.stopped = true }

// Run executes events until the queue empties or Stop is called.
func (s *Simulator) Run() {
	s.RunUntil(math.Inf(1))
}

// RunUntil executes events with time <= end, then sets the clock to end if
// the queue drained early (so that successive RunUntil calls advance the
// clock monotonically even through idle periods).
//
// A NaN end panics, as scheduling at a NaN time does: no event time
// compares greater than NaN, so the run would never stop.
//
//scda:noalloc guarded by TestScheduleFireIsAllocationFree and BenchmarkEventLoop
func (s *Simulator) RunUntil(end Time) {
	if math.IsNaN(end) {
		panic("sim: RunUntil with NaN end")
	}
	if s.running {
		panic("sim: RunUntil re-entered")
	}
	s.running = true
	s.stopped = false
	//scda:alloc-ok the deferred reset is an open-coded defer (single static site), proven 0 B/op by TestScheduleFireIsAllocationFree
	defer func() { s.running = false }()
	for !s.stopped {
		top := s.next(end)
		if top < 0 {
			break
		}
		slot := &s.arena[top]
		s.now = slot.at
		s.nowSeq = slot.seq + 1
		s.Processed++
		fn, fnArg, arg := slot.fn, slot.fnArg, slot.arg
		// Take and recycle before invoking the callback: the handle reads
		// as not-Pending inside its own callback (matching pre-arena
		// semantics), and the slot is immediately reusable by whatever
		// the callback schedules. A lane head files the lane's next entry
		// first.
		if slot.lane != 0 {
			s.advanceLane(top)
		}
		s.recycle(top)
		if fnArg != nil {
			fnArg(arg)
		} else {
			fn()
		}
	}
	switch {
	case s.stopped || end < s.now:
	case math.IsInf(end, 1):
		s.drainSeq = s.seq
	default:
		if s.now < end {
			s.now = end
		}
		s.nowSeq = s.seq
	}
}

// Lane is a FIFO of events for a stream whose times never decrease in
// push order, such as the far-end arrivals of one link (store-and-forward
// with a fixed delay delivers in transmit order) or a sorted request list.
// Each push takes an arena slot and the simulator's next sequence number,
// exactly as Simulator.AtArg does, but only the lane's head sits in the
// queue: when it fires, the lane's next entry is filed in the queue under
// that entry's own (time, sequence) key before the callback runs. A push
// earlier than the lane's tail goes straight into the queue under the key
// it takes. Every key is unique and never changes, so events fire
// in the same order, with the same Now, as if each had been scheduled
// with Simulator.AtArg, and they count toward Processed and Len the same
// way. Lane entries cannot be cancelled.
type Lane struct {
	s    *Simulator
	id   int32 // 1 + index in s.lanes
	tail int32 // arena slot of the last entry, -1 when the lane is empty
}

// NewLane returns an empty lane on s.
func (s *Simulator) NewLane() *Lane {
	l := &Lane{s: s, id: int32(len(s.lanes) + 1), tail: -1}
	s.lanes = append(s.lanes, l)
	return l
}

// AtArg schedules fn(arg) to run at absolute time t, with the same panics
// as Simulator.AtArg on a past or non-finite time.
//
//scda:noalloc
func (l *Lane) AtArg(t Time, fn func(any), arg any) {
	s := l.s
	if l.tail >= 0 && t < s.arena[l.tail].at {
		s.AtArg(t, fn, arg) // out of order: the queue orders it under its own key
		return
	}
	id := s.alloc(t)
	slot := &s.arena[id]
	slot.fnArg = fn
	slot.arg = arg
	slot.lane = l.id
	slot.next = -1
	if l.tail >= 0 {
		s.arena[l.tail].next = id
		s.laneWaiting++
	} else {
		s.place(id)
	}
	l.tail = id
}

// AfterArg schedules fn(arg) to run d seconds from now.
//
//scda:noalloc
func (l *Lane) AfterArg(d Time, fn func(any), arg any) {
	l.AtArg(l.s.now+d, fn, arg)
}

// advanceLane files the next entry of taken lane head top in the queue,
// or marks the lane empty.
//
//scda:noalloc
func (s *Simulator) advanceLane(top int32) {
	slot := &s.arena[top]
	if slot.next < 0 {
		s.lanes[slot.lane-1].tail = -1
		return
	}
	s.place(slot.next)
	s.laneWaiting--
}

// Ticker invokes fn every period seconds, starting at now+period, until
// Cancel is called. It is the building block for the RM/RA control loops
// (one tick per control interval τ). The rescheduling callback is
// allocated once at construction, so a running ticker does not allocate
// per tick.
type Ticker struct {
	sim    *Simulator
	period Time
	fn     func()
	fire   func()
	ev     Event
	done   bool
}

// NewTicker starts a repeating callback. period must be positive.
func (s *Simulator) NewTicker(period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{sim: s, period: period, fn: fn}
	t.fire = func() {
		if t.done {
			return
		}
		t.fn()
		if !t.done {
			t.ev = t.sim.After(t.period, t.fire)
		}
	}
	t.ev = s.After(period, t.fire)
	return t
}

// Cancel stops the ticker.
func (t *Ticker) Cancel() {
	t.done = true
	t.ev.Cancel()
}
