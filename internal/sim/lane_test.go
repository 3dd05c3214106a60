package sim

import (
	"fmt"
	"math"
	"testing"
)

// scheduleRun interprets a byte string as a schedule: top-level ops
// schedule, cancel, reserve a key, ask whether a held reservation is
// reached, queue a callback at one, cut the run with RunUntil (at a later
// time, at exactly Now or before it) or run it out, and every fired
// callback reads further bytes to do the same or call Stop. The same bytes
// drive three queues: a Simulator that schedules every event with
// At/AtArg, a Simulator that puts the events the bytes designate on 1–3
// lanes, and refQueue, a linear scan that needs no cleverness to be right.
// Each run reads its own cursor, so the runs consume the input identically
// exactly as long as they fire and answer identically, and the first
// divergence shows in the log.
type scheduleRun struct {
	q      orderQueue
	tails  []Time // the time each lane's tail would have in the laned run
	in     []byte
	pos    int
	direct []canceler // handles of the events every run schedules directly
	queued []bool     // per held reservation, whether an event was queued at it
	ids    int
	log    []string
}

// runMode selects the queue a scheduleRun runs on.
type runMode int

const (
	modeDirect    runMode = iota // a Simulator, every event through At/AtArg
	modeLaned                    // a Simulator, lane-designated events on Lanes
	modeReference                // refQueue
)

func (m runMode) String() string {
	return [...]string{"direct scheduling", "lanes", "the reference"}[m]
}

func newScheduleRun(in []byte, mode runMode) *scheduleRun {
	d := &scheduleRun{in: in}
	n := 1 + int(d.next()%3)
	d.tails = make([]Time, n)
	switch mode {
	case modeReference:
		d.q = &refQueue{}
	default:
		q := &simQueue{s: New()}
		for i := 0; mode == modeLaned && i < n; i++ {
			q.lanes = append(q.lanes, q.s.NewLane())
		}
		d.q = q
	}
	return d
}

// next returns the next input byte, 0 once the input is exhausted (0
// decodes to "no children, no stop, no cancel", so runs terminate).
func (d *scheduleRun) next() byte {
	if d.pos >= len(d.in) {
		return 0
	}
	b := d.in[d.pos]
	d.pos++
	return b
}

// delta is a time step. Half the byte values give a coarse 0.25 s step,
// so equal times are common; the other half give (1 + m/8)·2^e for e in
// [-48, 11], so times spread over 2^-48 s to 2^11 s and their keys differ
// in exponent bits as well as in the low mantissa bits.
func (d *scheduleRun) delta() Time {
	b := d.next()
	if b < 128 {
		return Time(b%8) * 0.25
	}
	return math.Ldexp(1+Time(d.next()%8)/8, int(b%60)-48)
}

// schedule adds one event. Its target (direct or lane k) and time mode —
// now (-0 when the clock is at zero and the input says so), the lane's
// tail, after the tail, or now plus a step that may fall before the tail —
// come from the input.
func (d *scheduleRun) schedule() {
	c := d.next()
	k := int(c%4) - 1
	if k >= len(d.tails) {
		k = -1
	}
	now := d.q.now()
	tail := now
	if k >= 0 {
		tail = math.Max(d.tails[k], now)
	}
	var t Time
	switch (c >> 2) % 4 {
	case 0:
		t = now
		if now == 0 && c&0x80 != 0 {
			t = math.Copysign(0, -1)
		}
	case 1:
		t = tail
	case 2:
		t = tail + d.delta()
	case 3:
		t = now + d.delta()
	}
	id := d.ids
	d.ids++
	switch {
	case k < 0 && c&0x40 != 0:
		d.direct = append(d.direct, d.q.at(t, func() { d.fire(id) }))
	case k < 0:
		d.direct = append(d.direct, d.q.atArg(t, d.fireArg, id))
	default:
		d.q.laneAtArg(k, t, d.fireArg, id)
	}
	if k >= 0 && t >= d.tails[k] {
		d.tails[k] = t
	}
}

// cancel cancels one directly scheduled event, fired or not.
func (d *scheduleRun) cancel() {
	if len(d.direct) > 0 {
		d.direct[int(d.next())%len(d.direct)].Cancel()
	}
}

// reserve holds a reservation at Now or a step after it.
func (d *scheduleRun) reserve() {
	t := d.q.now()
	if d.next()&1 != 0 {
		t += d.delta()
	}
	d.q.reserve(t)
	d.queued = append(d.queued, false)
}

// held picks a held reservation, or returns -1 when there is none.
func (d *scheduleRun) held() int {
	if len(d.queued) == 0 {
		return -1
	}
	return int(d.next()) % len(d.queued)
}

// reached logs whether a held reservation is reached.
func (d *scheduleRun) reached() {
	if k := d.held(); k >= 0 {
		d.log = append(d.log, fmt.Sprintf("reservation %d reached: %v", k, d.q.reached(k)))
	}
}

// atMark queues a callback at a held reservation that is neither reached
// nor already taken by one.
func (d *scheduleRun) atMark() {
	k := d.held()
	if k < 0 || d.queued[k] {
		return
	}
	if d.q.reached(k) {
		d.log = append(d.log, fmt.Sprintf("reservation %d reached", k))
		return
	}
	d.queued[k] = true
	id := d.ids
	d.ids++
	d.log = append(d.log, fmt.Sprintf("queue %d at reservation %d", id, k))
	d.direct = append(d.direct, d.q.atMark(k, d.fireArg, id))
}

func (d *scheduleRun) fireArg(arg any) { d.fire(arg.(int)) }

func (d *scheduleRun) fire(id int) {
	d.log = append(d.log, fmt.Sprintf("fire %d at %v", id, d.q.now()))
	b := d.next()
	for i := 0; i < int(b%4); i++ {
		d.schedule()
	}
	if b&0x04 != 0 {
		d.reserve()
	}
	if b&0x08 != 0 {
		d.reached()
	}
	if b&0x40 != 0 {
		d.atMark()
	}
	if b&0x10 != 0 {
		d.cancel()
	}
	if b&0x20 != 0 {
		d.q.stop()
	}
}

// cut records the state a run boundary must agree on.
func (d *scheduleRun) cut(end Time) {
	d.q.runUntil(end)
	processed, n := d.q.counts()
	d.log = append(d.log, fmt.Sprintf("cut %v: now %v processed %d len %d", end, d.q.now(), processed, n))
}

func (d *scheduleRun) run() []string {
	for d.pos < len(d.in) {
		switch d.next() % 12 {
		case 0, 1, 2, 3:
			d.schedule()
		case 4:
			d.cancel()
		case 5:
			d.cut(d.q.now() + d.delta())
		case 6:
			d.cut(d.q.now())
		case 7:
			d.cut(math.Inf(1))
		case 8:
			d.cut(d.q.now() - d.delta())
		case 9:
			d.reserve()
		case 10:
			d.reached()
		case 11:
			d.atMark()
		}
	}
	d.cut(math.Inf(1))
	return d.log
}

// canceler is the part of an event handle a scheduleRun uses.
type canceler interface{ Cancel() }

// orderQueue is the event queue under a scheduleRun. Reservations are
// numbered in the order reserve takes them.
type orderQueue interface {
	now() Time
	at(t Time, fn func()) canceler
	atArg(t Time, fn func(any), arg any) canceler
	laneAtArg(k int, t Time, fn func(any), arg any) // lane k's push
	reserve(t Time)
	reached(k int) bool
	atMark(k int, fn func(any), arg any) canceler // at reservation k
	runUntil(end Time)
	stop()
	counts() (processed uint64, n int) // Processed and Len
}

// simQueue runs a schedule on a Simulator. With no lanes, lane pushes go
// through Simulator.AtArg.
type simQueue struct {
	s     *Simulator
	lanes []*Lane
	marks []Mark
}

func (q *simQueue) reserve(t Time)     { q.marks = append(q.marks, q.s.Reserve(t)) }
func (q *simQueue) reached(k int) bool { return q.s.Reached(q.marks[k]) }

func (q *simQueue) atMark(k int, fn func(any), arg any) canceler {
	return q.s.AtMarkArg(q.marks[k], fn, arg)
}

func (q *simQueue) now() Time                                    { return q.s.Now() }
func (q *simQueue) at(t Time, fn func()) canceler                { return q.s.At(t, fn) }
func (q *simQueue) atArg(t Time, fn func(any), arg any) canceler { return q.s.AtArg(t, fn, arg) }
func (q *simQueue) runUntil(end Time)                            { q.s.RunUntil(end) }
func (q *simQueue) stop()                                        { q.s.Stop() }
func (q *simQueue) counts() (uint64, int)                        { return q.s.Processed, q.s.Len() }

func (q *simQueue) laneAtArg(k int, t Time, fn func(any), arg any) {
	if q.lanes == nil {
		q.s.AtArg(t, fn, arg)
		return
	}
	q.lanes[k].AtArg(t, fn, arg)
}

// refQueue is the firing-order oracle. It keeps the pending events in a
// plain list and fires the one with the least (time, sequence) key,
// comparing times as floats, so -0 ties with +0. A lane push is scheduled
// directly, which is exactly what the Lane contract promises it behaves
// as. RunUntil's clock, Stop and Processed rules are the Simulator's. A
// reservation takes a sequence number and queues nothing: it is a key that
// fires nothing, marked reached when the run takes an event at or after
// it, or runs through its time without a Stop.
type refQueue struct {
	clock     Time
	seq       uint64
	pending   []*refEvent
	marks     []*refMark
	stopped   bool
	processed uint64
}

type refMark struct {
	at      Time
	seq     uint64
	reached bool
}

type refEvent struct {
	q      *refQueue
	at     Time
	seq    uint64
	fn     func()
	queued bool
}

func (e *refEvent) Cancel() {
	if !e.queued {
		return
	}
	e.queued = false
	p := e.q.pending
	for i := range p {
		if p[i] == e {
			e.q.pending = append(p[:i], p[i+1:]...)
			return
		}
	}
}

// key checks t and takes the next sequence number.
func (q *refQueue) key(t Time) uint64 {
	if t < q.clock || math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("refQueue: scheduling at %v, now %v", t, q.clock))
	}
	q.seq++
	return q.seq - 1
}

func (q *refQueue) push(t Time, fn func()) *refEvent {
	e := &refEvent{q: q, at: t, seq: q.key(t), fn: fn, queued: true}
	q.pending = append(q.pending, e)
	return e
}

func (q *refQueue) reserve(t Time) { q.marks = append(q.marks, &refMark{at: t, seq: q.key(t)}) }

func (q *refQueue) reached(k int) bool { return q.marks[k].reached }

func (q *refQueue) atMark(k int, fn func(any), arg any) canceler {
	m := q.marks[k]
	if m.reached {
		panic(fmt.Sprintf("refQueue: queueing at reached reservation %d", k))
	}
	e := &refEvent{q: q, at: m.at, seq: m.seq, fn: func() { fn(arg) }, queued: true}
	q.pending = append(q.pending, e)
	return e
}

func (q *refQueue) now() Time                     { return q.clock }
func (q *refQueue) at(t Time, fn func()) canceler { return q.push(t, fn) }
func (q *refQueue) stop()                         { q.stopped = true }
func (q *refQueue) counts() (uint64, int)         { return q.processed, len(q.pending) }

func (q *refQueue) atArg(t Time, fn func(any), arg any) canceler {
	return q.push(t, func() { fn(arg) })
}

func (q *refQueue) laneAtArg(_ int, t Time, fn func(any), arg any) {
	q.push(t, func() { fn(arg) })
}

func (q *refQueue) runUntil(end Time) {
	q.stopped = false
	for len(q.pending) > 0 && !q.stopped {
		m := q.pending[0]
		for _, e := range q.pending[1:] {
			if e.at < m.at || e.at == m.at && e.seq < m.seq {
				m = e
			}
		}
		if m.at > end {
			break
		}
		for _, r := range q.marks {
			if r.at < m.at || r.at == m.at && r.seq <= m.seq {
				r.reached = true
			}
		}
		q.clock = m.at
		q.processed++
		m.Cancel()
		m.fn()
	}
	if !q.stopped {
		for _, r := range q.marks {
			if r.at <= end {
				r.reached = true
			}
		}
	}
	if !q.stopped && !math.IsInf(end, 1) && q.clock < end {
		q.clock = end
	}
}

// checkLaneOrder runs in through the reference and both Simulator modes
// and fails on the first difference in firing sequence, Reached answers,
// Now, Processed or Len.
func checkLaneOrder(t *testing.T, in []byte) {
	t.Helper()
	want := newScheduleRun(in, modeReference).run()
	for _, mode := range []runMode{modeDirect, modeLaned} {
		got := newScheduleRun(in, mode).run()
		for i := 0; i < len(want) && i < len(got); i++ {
			if got[i] != want[i] {
				t.Fatalf("input %x: step %d: %v gives %q, the reference %q", in, i, mode, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("input %x: %v logs %d steps, the reference %d", in, mode, len(got), len(want))
		}
	}
}

// TestLaneOrderProperty drives seeded random schedules through the
// reference and both Simulator modes: equal times, -0, times spread over
// exponents, pushes before a lane's tail, pushes from inside callbacks (a
// lane's own included), cancels, reservations (asked about and queued at,
// inside callbacks too), RunUntil cuts (above, at and below Now) and Stop.
func TestLaneOrderProperty(t *testing.T) {
	rng := NewRNG(13)
	for i := 0; i < 2000; i++ {
		in := make([]byte, 16+rng.Intn(400))
		for j := range in {
			in[j] = byte(rng.Uint64())
		}
		checkLaneOrder(t, in)
	}
}

// FuzzLaneOrder is TestLaneOrderProperty over fuzzer-chosen schedules.
func FuzzLaneOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0x05, 0x05, 0x05, 0x09, 0x0d, 0x05, 5, 7})
	f.Add([]byte("lanes keep the queue order under every push"))
	rng := NewRNG(1)
	for i := 0; i < 4; i++ {
		in := make([]byte, 64)
		for j := range in {
			in[j] = byte(rng.Uint64())
		}
		f.Add(in)
	}
	f.Fuzz(checkLaneOrder)
}

// TestLaneInterleavesWithHeap pins the tie-break by hand: equal times
// fire in scheduling order across lanes and direct events, and a push earlier
// than its lane's tail fires at its own time.
func TestLaneInterleavesWithHeap(t *testing.T) {
	s := New()
	var got []string
	rec := func(arg any) { got = append(got, fmt.Sprintf("%v@%v", arg, s.Now())) }
	a, b := s.NewLane(), s.NewLane()
	a.AtArg(1, rec, "a1")
	s.AtArg(1, rec, "h1")
	b.AtArg(1, rec, "b1")
	a.AtArg(3, rec, "a3")
	a.AtArg(2, rec, "a2") // before a's tail
	b.AfterArg(2, rec, "b2")
	if s.Len() != 6 {
		t.Fatalf("Len = %d, want 6", s.Len())
	}
	s.Run()
	want := "[a1@1 h1@1 b1@1 a2@2 b2@2 a3@3]"
	if fmt.Sprint(got) != want {
		t.Fatalf("fired %v, want %s", got, want)
	}
	if s.Processed != 6 || s.Len() != 0 {
		t.Fatalf("Processed = %d, Len = %d, want 6, 0", s.Processed, s.Len())
	}
}

// TestLanePushPanics: a lane rejects past and non-finite times exactly as
// Simulator.AtArg does, whether it is empty or not.
func TestLanePushPanics(t *testing.T) {
	for _, at := range []Time{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, queued := range []bool{false, true} {
			s := New()
			l := s.NewLane()
			if queued {
				l.AtArg(0, func(any) {}, nil)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("lane push at %v (queued %v) did not panic", at, queued)
					}
				}()
				l.AtArg(at, func(any) {}, nil)
			}()
		}
	}
}
