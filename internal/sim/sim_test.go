package sim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.At(3, func() { order = append(order, 3) })
	s.At(1, func() { order = append(order, 1) })
	s.At(2, func() { order = append(order, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEqualTimeFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO tie-break broken: order[%d]=%d", i, v)
		}
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	s := New()
	var at Time
	s.After(2.5, func() { at = s.Now() })
	s.Run()
	if at != 2.5 {
		t.Fatalf("Now inside event = %v, want 2.5", at)
	}
	if s.Now() != 2.5 {
		t.Fatalf("final Now = %v, want 2.5", s.Now())
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.At(1, func() { fired = true })
	if !e.Pending() {
		t.Fatal("event should be pending before run")
	}
	e.Cancel()
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelInsideEarlierEvent(t *testing.T) {
	s := New()
	fired := false
	e := s.At(2, func() { fired = true })
	s.At(1, func() { e.Cancel() })
	s.Run()
	if fired {
		t.Fatal("event cancelled at t=1 still fired at t=2")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(1, func() {})
	})
	s.Run()
}

func TestNonFiniteTimePanics(t *testing.T) {
	s := New()
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("scheduling at %v did not panic", bad)
				}
			}()
			s.At(bad, func() {})
		}()
	}
}

// TestReservationPanics: Reserve refuses past and non-finite times as At
// does, and AtMarkArg refuses a reached key.
func TestReservationPanics(t *testing.T) {
	panics := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	s := New()
	s.RunUntil(1)
	for _, bad := range []Time{0.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		panics(fmt.Sprintf("Reserve(%v) at 1", bad), func() { s.Reserve(bad) })
	}
	m := s.Reserve(2)
	s.RunUntil(2)
	panics("AtMarkArg at a reached key", func() { s.AtMarkArg(m, func(any) {}, nil) })
}

// TestReservedKeyKeepsItsPlace pins a reservation by hand: it queues
// nothing, moves no clock, and an event queued under it later fires
// between the events scheduled around the reservation, as if scheduled
// then. Reached turns at exactly that place.
func TestReservedKeyKeepsItsPlace(t *testing.T) {
	s := New()
	var got []string
	var m Mark
	rec := func(arg any) { got = append(got, fmt.Sprintf("%v@%v reached %v", arg, s.Now(), s.Reached(m))) }
	s.AtArg(1, rec, "before")
	m = s.Reserve(1)
	s.AtArg(1, rec, "after")
	if s.Len() != 2 || s.Reached(m) {
		t.Fatalf("Len %d, Reached %v after Reserve, want 2, false", s.Len(), s.Reached(m))
	}
	s.AtArg(0.5, func(any) { s.AtMarkArg(m, rec, "mark") }, nil)
	s.Run()
	want := "[before@1 reached false mark@1 reached true after@1 reached true]"
	if fmt.Sprint(got) != want {
		t.Fatalf("fired %v, want %s", got, want)
	}
	// Unqueued, a reservation past the last event fires nothing and leaves
	// the clock where it was, and a run that drains reaches it.
	late := s.Reserve(9)
	s.Run()
	if s.Now() != 1 || s.Processed != 4 || !s.Reached(late) {
		t.Fatalf("Now %v, Processed %d, Reached %v, want 1, 4, true", s.Now(), s.Processed, s.Reached(late))
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	s.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("fired %d events by t=3, want 3", len(fired))
	}
	if s.Now() != 3 {
		t.Fatalf("Now = %v after RunUntil(3)", s.Now())
	}
	s.RunUntil(10)
	if len(fired) != 5 {
		t.Fatalf("fired %d events total, want 5", len(fired))
	}
	if s.Now() != 10 {
		t.Fatalf("Now = %v after RunUntil(10), want 10 (idle advance)", s.Now())
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(Time(i), func() {
			count++
			if count == 4 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 4 {
		t.Fatalf("processed %d events after Stop at 4", count)
	}
}

func TestTicker(t *testing.T) {
	s := New()
	var times []Time
	tk := s.NewTicker(0.5, func() {
		times = append(times, s.Now())
		if len(times) == 4 {
			// cancel from inside the callback
			return
		}
	})
	s.At(2.1, func() { tk.Cancel() })
	s.Run()
	want := []Time{0.5, 1.0, 1.5, 2.0}
	if len(times) != len(want) {
		t.Fatalf("ticker fired %d times (%v), want %d", len(times), times, len(want))
	}
	for i := range want {
		if math.Abs(times[i]-want[i]) > 1e-12 {
			t.Fatalf("tick %d at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestTickerCancelInsideCallback(t *testing.T) {
	s := New()
	count := 0
	var tk *Ticker
	tk = s.NewTicker(1, func() {
		count++
		if count == 2 {
			tk.Cancel()
		}
	})
	s.RunUntil(100)
	if count != 2 {
		t.Fatalf("ticker fired %d times after self-cancel at 2", count)
	}
}

func TestProcessedCount(t *testing.T) {
	s := New()
	for i := 0; i < 7; i++ {
		s.At(Time(i), func() {})
	}
	s.Run()
	if s.Processed != 7 {
		t.Fatalf("Processed = %d, want 7", s.Processed)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	c1 := r.Split(1)
	c2 := r.Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams collided %d/100 times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(1)
	f := func(steps uint16) bool {
		for i := 0; i < int(steps%256)+1; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(3)
	const rate = 200.0 // paper's Poisson arrival rate, flows/sec
	n := 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(rate)
	}
	mean := sum / float64(n)
	if math.Abs(mean-1/rate) > 0.1/rate {
		t.Fatalf("Exp mean = %v, want ~%v", mean, 1/rate)
	}
}

func TestParetoMinAndMean(t *testing.T) {
	r := NewRNG(4)
	// paper's content sizes: mean 500KB, shape 1.6
	const alpha = 1.6
	const mean = 500e3
	xm := mean * (alpha - 1) / alpha
	n := 500000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Pareto(xm, alpha)
		if v < xm {
			t.Fatalf("Pareto produced %v < xm %v", v, xm)
		}
		sum += v
	}
	got := sum / float64(n)
	// heavy-tailed: generous tolerance
	if got < 0.7*mean || got > 1.6*mean {
		t.Fatalf("Pareto sample mean %v too far from %v", got, mean)
	}
}

func TestGaussMoments(t *testing.T) {
	r := NewRNG(5)
	n := 200000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Gauss()
		sum += v
		sum2 += v * v
	}
	mean := sum / float64(n)
	variance := sum2/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("Gauss mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("Gauss variance = %v", variance)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(6)
	f := func(n uint8) bool {
		m := int(n%32) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(8)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		if r.LogNormal(0, 1) <= 0 {
			t.Fatal("LogNormal produced non-positive value")
		}
	}
}
