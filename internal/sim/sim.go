// Package sim provides the discrete-event simulation core used by every
// SCDA substrate: a time-ordered event loop, timers, and a deterministic
// pseudo-random number generator so that every experiment is reproducible
// from a seed.
//
// The engine is single-threaded by design. Datacenter simulations of the
// scale used in the SCDA paper (thousands of flows, millions of packet
// events) are dominated by heap operations and cache behaviour, not by
// parallelism; a single goroutine with an index heap is both faster and
// easier to make deterministic than a parallel event queue. Parallelism in
// this repository lives one level up: independent experiment runs (one per
// figure, one per seed) execute concurrently.
//
// The event queue is allocation-free in steady state: event state lives in
// a flat arena owned by the Simulator, recycled through a free list, and
// ordered by a 4-ary heap of arena indices. A 4-ary heap does the same
// comparisons-per-level work as a binary heap but halves the tree depth,
// which matters when every sift touches the arena. Every event takes the
// next sequence number when it is scheduled, and events with equal time
// fire in sequence order (FIFO tie-break), which keeps runs deterministic.
//
// The heap holds individual events and lane heads. A Lane is a FIFO for a
// stream whose times never decrease in push order — a link's far-end
// arrivals, a sorted request list — and keeps only its earliest entry in
// the heap, so a stream of any length costs the heap one slot. Lane
// entries keep the (time, sequence) key they would have had on the heap,
// so the firing order is the same as scheduling each one directly.
package sim

import (
	"fmt"
	"math"
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
	idx   int32 // position in the heap, -1 when not queued
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
	e.s.remove(slot.idx)
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
// heap.
type Simulator struct {
	now     Time
	seq     uint64
	arena   []eventSlot
	heap    []int32 // 4-ary min-heap of arena indices
	free    []int32 // recycled arena indices
	running bool
	stopped bool
	lanes   []*Lane
	// laneWaiting counts the lane entries behind their lane's head: they
	// are pending but not in the heap.
	laneWaiting int

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
func (s *Simulator) Len() int { return len(s.heap) + s.laneWaiting }

// alloc takes a slot from the free list (or grows the arena), stamps it
// with t and the next FIFO sequence number, and returns its index.
//
//scda:noalloc steady state: the arena append is amortized pool growth
func (s *Simulator) alloc(t Time) int32 {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: scheduling event at non-finite time %v", t))
	}
	var id int32
	if k := len(s.free); k > 0 {
		id = s.free[k-1]
		s.free = s.free[:k-1]
	} else {
		s.arena = append(s.arena, eventSlot{})
		id = int32(len(s.arena) - 1)
	}
	slot := &s.arena[id]
	slot.at = t
	slot.seq = s.seq
	s.seq++
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
	s.push(id)
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
	s.push(id)
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

// less orders heap entries by (time, sequence): FIFO among equal times.
//
//scda:noalloc
func (s *Simulator) less(a, b int32) bool {
	sa, sb := &s.arena[a], &s.arena[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

//scda:noalloc steady state: the heap append is amortized pool growth
func (s *Simulator) push(id int32) {
	s.heap = append(s.heap, id)
	s.siftUp(len(s.heap) - 1)
}

//scda:noalloc
func (s *Simulator) siftUp(i int) {
	h := s.heap
	id := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !s.less(id, h[p]) {
			break
		}
		h[i] = h[p]
		s.arena[h[i]].idx = int32(i)
		i = p
	}
	h[i] = id
	s.arena[id].idx = int32(i)
}

//scda:noalloc
func (s *Simulator) siftDown(i int) {
	h := s.heap
	n := len(h)
	id := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if s.less(h[j], h[m]) {
				m = j
			}
		}
		if !s.less(h[m], id) {
			break
		}
		h[i] = h[m]
		s.arena[h[i]].idx = int32(i)
		i = m
	}
	h[i] = id
	s.arena[id].idx = int32(i)
}

// remove deletes the heap entry at position i (eager deletion keeps the
// heap small under timer churn — cancel/re-arm per ACK is the common case
// in the transports).
//
//scda:noalloc
func (s *Simulator) remove(i int32) {
	h := s.heap
	n := len(h) - 1
	s.arena[h[i]].idx = -1
	last := h[n]
	s.heap = h[:n]
	if int(i) == n {
		return
	}
	s.heap[i] = last
	s.arena[last].idx = i
	s.siftDown(int(i))
	s.siftUp(int(s.arena[last].idx))
}

// popMin removes and returns the earliest event's arena index.
//
//scda:noalloc
func (s *Simulator) popMin() int32 {
	h := s.heap
	top := h[0]
	s.arena[top].idx = -1
	n := len(h) - 1
	last := h[n]
	s.heap = h[:n]
	if n > 0 {
		s.heap[0] = last
		s.siftDown(0)
	}
	return top
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
	for len(s.heap) > 0 && !s.stopped {
		top := s.heap[0]
		slot := &s.arena[top]
		if slot.at > end {
			break
		}
		s.now = slot.at
		s.Processed++
		fn, fnArg, arg := slot.fn, slot.fnArg, slot.arg
		// Pop and recycle before invoking the callback: the handle reads
		// as not-Pending inside its own callback (matching pre-arena
		// semantics), and the slot is immediately reusable by whatever
		// the callback schedules. A lane head hands its heap position to
		// the lane's next entry first.
		if slot.lane != 0 {
			s.advanceLane(top)
		} else {
			s.popMin()
		}
		s.recycle(top)
		if fnArg != nil {
			fnArg(arg)
		} else {
			fn()
		}
	}
	if !s.stopped && !math.IsInf(end, 1) && s.now < end {
		s.now = end
	}
}

// Lane is a FIFO of events for a stream whose times never decrease in
// push order, such as the far-end arrivals of one link (store-and-forward
// with a fixed delay delivers in transmit order) or a sorted request list.
// Each push takes an arena slot and the simulator's next sequence number,
// exactly as Simulator.AtArg does, but only the lane's head sits in the
// heap: when it fires, the lane's next entry takes its heap position
// under that entry's own (time, sequence) key before the callback runs.
// A push earlier than the lane's tail goes straight onto the heap under
// the key it takes. Every key is unique and never changes, so events fire
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
		s.AtArg(t, fn, arg) // out of order: the heap orders it under its own key
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
		s.push(id)
	}
	l.tail = id
}

// AfterArg schedules fn(arg) to run d seconds from now.
//
//scda:noalloc
func (l *Lane) AfterArg(d Time, fn func(any), arg any) {
	l.AtArg(l.s.now+d, fn, arg)
}

// advanceLane removes the lane head top from the top of the heap and
// puts the lane's next entry in its place: the next key is larger, so one
// sift down restores the heap.
//
//scda:noalloc
func (s *Simulator) advanceLane(top int32) {
	slot := &s.arena[top]
	next := slot.next
	if next < 0 {
		s.lanes[slot.lane-1].tail = -1
		s.popMin()
		return
	}
	slot.idx = -1
	s.heap[0] = next
	s.siftDown(0)
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
