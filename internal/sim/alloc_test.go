package sim

import (
	"math"
	"testing"
)

// TestScheduleFireIsAllocationFree pins the event-arena property: after
// warm-up, schedule→fire→recycle cycles (with and without AtArg payloads,
// including a cancel, a cancel at the current instant and a take that
// redistributes a bucket) do not allocate, and neither do lane push→fire
// cycles, a push before the lane's tail included.
func TestScheduleFireIsAllocationFree(t *testing.T) {
	s := New()
	fn := func() {}
	fnArg := func(any) {}
	arg := &struct{ x int }{}
	// cancelNow schedules two events at the current instant and cancels
	// the first, which sits ahead of the second in bucket 0.
	cancelNow := func() {
		e := s.After(0, fn)
		s.After(0, fn)
		e.Cancel()
	}
	cycle := func() {
		s.After(1, fn)
		s.AfterArg(2, fnArg, arg)
		e := s.After(3, fn)
		e.Cancel()
		s.After(0, cancelNow)
		// Four times an eighth apart, four seconds out, share a bucket
		// until the first is taken, which spreads the other three.
		for i := 0; i < 4; i++ {
			s.After(4+Time(i)/8, fn)
		}
		s.Run()
	}
	cycle() // warm the arena, buckets and free list
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("warm schedule/fire/cancel allocates %v allocs/op, want 0", allocs)
	}
	l := s.NewLane()
	laneCycle := func() {
		for i := 1; i <= 8; i++ {
			l.AfterArg(Time(i), fnArg, arg)
		}
		l.AfterArg(0.5, fnArg, arg) // before the tail: straight into the queue
		s.Run()
	}
	laneCycle() // warm the arena to nine pending events
	if allocs := testing.AllocsPerRun(200, laneCycle); allocs != 0 {
		t.Fatalf("warm lane push/fire allocates %v allocs/op, want 0", allocs)
	}
}

// TestRunUntilNaNPanics: no event time compares greater than NaN, so a
// NaN end would run past every horizon while a ticker is armed.
func TestRunUntilNaNPanics(t *testing.T) {
	s := New()
	s.At(1, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("RunUntil(NaN) did not panic")
		}
	}()
	s.RunUntil(math.NaN())
}

// TestStaleHandleCannotTouchRecycledSlot verifies the generation guard: a
// handle kept across its event's firing must not cancel (or report
// pending for) the unrelated event that later reuses the slot.
func TestStaleHandleCannotTouchRecycledSlot(t *testing.T) {
	s := New()
	stale := s.At(1, func() {})
	s.Run() // fires; slot recycled
	if stale.Pending() {
		t.Fatal("fired event still pending")
	}
	fired := false
	fresh := s.At(2, func() { fired = true }) // reuses the recycled slot
	stale.Cancel()                            // must be a no-op
	if !fresh.Pending() {
		t.Fatal("stale Cancel killed an unrelated event in the reused slot")
	}
	s.Run()
	if !fired {
		t.Fatal("event in reused slot did not fire")
	}
}

// TestCancelRemovesFromHeap verifies eager cancellation: cancelled events
// leave the queue immediately instead of lingering until their deadline,
// so timer-churn workloads (cancel/re-arm per ACK) keep the queue small.
func TestCancelRemovesFromHeap(t *testing.T) {
	s := New()
	var evs []Event
	for i := 0; i < 100; i++ {
		evs = append(evs, s.At(Time(i+1), func() {}))
	}
	for _, e := range evs[:50] {
		e.Cancel()
	}
	if s.Len() != 50 {
		t.Fatalf("Len = %d after cancelling 50 of 100, want 50", s.Len())
	}
	s.Run()
	if s.Processed != 50 {
		t.Fatalf("Processed = %d, want 50", s.Processed)
	}
}
