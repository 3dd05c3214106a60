package sim

import (
	"fmt"
	"math"
	"testing"
)

// laneDriver interprets a byte string as a schedule: top-level ops
// schedule, cancel, cut the run with RunUntil or run it out, and every
// fired callback reads further bytes to schedule children, call Stop or
// cancel. The same bytes drive two simulators: the direct one schedules
// every event with At/AtArg, the laned one puts the events the bytes
// designate on 1–3 lanes. Each driver reads its own cursor, so the two
// consume the input identically exactly as long as they fire identically,
// and the first divergence shows in the log.
type laneDriver struct {
	s      *Simulator
	laned  bool
	lanes  []*Lane
	tails  []Time // the time each lane's tail would have in the laned run
	in     []byte
	pos    int
	direct []Event // handles of the events both runs schedule directly
	ids    int
	log    []string
}

func newLaneDriver(in []byte, laned bool) *laneDriver {
	d := &laneDriver{s: New(), laned: laned, in: in}
	n := 1 + int(d.next()%3)
	d.tails = make([]Time, n)
	for i := 0; i < n; i++ {
		d.lanes = append(d.lanes, d.s.NewLane())
	}
	return d
}

// next returns the next input byte, 0 once the input is exhausted (0
// decodes to "no children, no stop, no cancel", so runs terminate).
func (d *laneDriver) next() byte {
	if d.pos >= len(d.in) {
		return 0
	}
	b := d.in[d.pos]
	d.pos++
	return b
}

// delta is a short, coarse time step, so equal times are common.
func (d *laneDriver) delta() Time { return Time(d.next()%8) * 0.25 }

// schedule adds one event. Its target (direct or lane k) and time mode —
// now, the lane's tail, after the tail, or now plus a step that may fall
// before the tail — come from the input.
func (d *laneDriver) schedule() {
	c := d.next()
	k := int(c%4) - 1
	if k >= len(d.lanes) {
		k = -1
	}
	now := d.s.Now()
	tail := now
	if k >= 0 {
		tail = math.Max(d.tails[k], now)
	}
	var t Time
	switch (c >> 2) % 4 {
	case 0:
		t = now
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
	case k < 0:
		if c&0x40 != 0 {
			d.direct = append(d.direct, d.s.At(t, func() { d.fire(id) }))
		} else {
			d.direct = append(d.direct, d.s.AtArg(t, d.fireArg, id))
		}
	case d.laned:
		d.lanes[k].AtArg(t, d.fireArg, id)
	default:
		d.s.AtArg(t, d.fireArg, id)
	}
	if k >= 0 && t >= d.tails[k] {
		d.tails[k] = t
	}
}

// cancel cancels one directly scheduled event, fired or not.
func (d *laneDriver) cancel() {
	if len(d.direct) > 0 {
		d.direct[int(d.next())%len(d.direct)].Cancel()
	}
}

func (d *laneDriver) fireArg(arg any) { d.fire(arg.(int)) }

func (d *laneDriver) fire(id int) {
	d.log = append(d.log, fmt.Sprintf("fire %d at %v", id, d.s.Now()))
	b := d.next()
	for i := 0; i < int(b%4); i++ {
		d.schedule()
	}
	if b&0x10 != 0 {
		d.cancel()
	}
	if b&0x20 != 0 {
		d.s.Stop()
	}
}

// cut records the state a run boundary must agree on.
func (d *laneDriver) cut(end Time) {
	d.s.RunUntil(end)
	d.log = append(d.log, fmt.Sprintf("cut %v: now %v processed %d len %d", end, d.s.Now(), d.s.Processed, d.s.Len()))
}

func (d *laneDriver) run() []string {
	for d.pos < len(d.in) {
		switch d.next() % 8 {
		case 0, 1, 2, 3:
			d.schedule()
		case 4:
			d.cancel()
		case 5, 6:
			d.cut(d.s.Now() + d.delta())
		case 7:
			d.cut(math.Inf(1))
		}
	}
	d.cut(math.Inf(1))
	return d.log
}

// checkLaneOrder runs in through both simulators and fails on the first
// difference in firing sequence, Now, Processed or Len.
func checkLaneOrder(t *testing.T, in []byte) {
	t.Helper()
	want := newLaneDriver(in, false).run()
	got := newLaneDriver(in, true).run()
	for i := 0; i < len(want) && i < len(got); i++ {
		if got[i] != want[i] {
			t.Fatalf("input %x: step %d: lanes give %q, direct scheduling %q", in, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("input %x: lanes log %d steps, direct scheduling %d", in, len(got), len(want))
	}
}

// TestLaneOrderProperty drives seeded random schedules through both
// simulators: equal times, pushes before a lane's tail, pushes from inside
// callbacks (a lane's own included), cancels, RunUntil cuts and Stop.
func TestLaneOrderProperty(t *testing.T) {
	rng := NewRNG(13)
	for i := 0; i < 500; i++ {
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
	f.Add([]byte("lanes keep the heap's order under every push"))
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
// fire in scheduling order across lanes and the heap, and a push earlier
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
