package runner

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderAndResults(t *testing.T) {
	for _, workers := range []int{1, 4} {
		out, err := Map(New(workers), 100, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 100 {
			t.Fatalf("workers=%d: %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	_, err := Map(New(workers), 64, func(i int) (struct{}, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		cur.Add(-1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

func TestMapError(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 8} {
		_, err := Map(New(workers), 16, func(i int) (int, error) {
			if i == 5 || i == 11 {
				return 0, sentinel
			}
			return i, nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
	}
}

func TestMapConcurrentFailsFast(t *testing.T) {
	// Task 0 fails immediately; the submission loop must stop launching
	// new tasks once the failure is visible, so far fewer than n run.
	var started atomic.Int64
	_, err := Map(New(2), 200, func(i int) (int, error) {
		started.Add(1)
		if i == 0 {
			return 0, errors.New("early failure")
		}
		time.Sleep(5 * time.Millisecond)
		return i, nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if s := started.Load(); s >= 100 {
		t.Fatalf("%d of 200 tasks started after an immediate failure; fail-fast is not working", s)
	}
}

func TestMapSerialStopsAtError(t *testing.T) {
	ran := 0
	_, err := Map(Serial(), 10, func(i int) (int, error) {
		ran++
		if i == 3 {
			return 0, errors.New("stop")
		}
		return i, nil
	})
	if err == nil || ran != 4 {
		t.Fatalf("err=%v ran=%d, want error after 4 tasks", err, ran)
	}
}

func TestDefaultPool(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default pool not shared")
	}
	if Default().Workers() < 1 {
		t.Fatal("default pool has no workers")
	}
	if Serial().Workers() != 1 {
		t.Fatal("Serial pool width != 1")
	}
}

func TestGroupMemoizesPerKey(t *testing.T) {
	g := NewGroup[string, int]()
	calls := 0
	for i := 0; i < 3; i++ {
		v, err := g.Do("a", func() (int, error) { calls++; return 42, nil })
		if err != nil || v != 42 {
			t.Fatalf("v=%d err=%v", v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d", g.Len())
	}
}

func TestGroupSingleflightConcurrent(t *testing.T) {
	g := NewGroup[int, int]()
	var calls atomic.Int64
	var wg sync.WaitGroup
	release := make(chan struct{})
	const waiters = 16
	results := make([]int, waiters)
	for i := 0; i < waiters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := g.Do(7, func() (int, error) {
				calls.Add(1)
				<-release // hold the flight open so everyone piles on
				return 99, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}()
	}
	close(release)
	wg.Wait()
	if c := calls.Load(); c != 1 {
		t.Fatalf("fn ran %d times under contention, want 1", c)
	}
	for i, v := range results {
		if v != 99 {
			t.Fatalf("waiter %d got %d", i, v)
		}
	}
}

func TestGroupDistinctKeysDontSerialize(t *testing.T) {
	// If the group held its lock across fn, the second key's Do would
	// deadlock waiting for the first (which blocks until the second runs).
	g := NewGroup[int, int]()
	aStarted := make(chan struct{})
	bDone := make(chan struct{})
	go func() {
		g.Do(1, func() (int, error) {
			close(aStarted)
			<-bDone
			return 1, nil
		})
	}()
	<-aStarted
	if _, err := g.Do(2, func() (int, error) { return 2, nil }); err != nil {
		t.Fatal(err)
	}
	close(bDone)
}

func TestGroupErrorNotCached(t *testing.T) {
	g := NewGroup[string, int]()
	calls := 0
	if _, err := g.Do("k", func() (int, error) { calls++; return 0, errors.New("first") }); err == nil {
		t.Fatal("error swallowed")
	}
	v, err := g.Do("k", func() (int, error) { calls++; return 7, nil })
	if err != nil || v != 7 || calls != 2 {
		t.Fatalf("v=%d err=%v calls=%d, want retry after error", v, err, calls)
	}
}

func TestMapCtxSerialStopsBetweenTasks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	_, err := MapCtx(ctx, Serial(), 10, func(ctx context.Context, i int) (int, error) {
		ran++
		if i == 2 {
			cancel() // takes effect before task 3 starts
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 3 {
		t.Fatalf("ran %d tasks after cancel at task 2, want 3", ran)
	}
}

func TestMapCtxConcurrentStopsSubmitting(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	_, err := MapCtx(ctx, New(2), 200, func(ctx context.Context, i int) (int, error) {
		started.Add(1)
		if i == 0 {
			cancel()
		}
		time.Sleep(2 * time.Millisecond)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s := started.Load(); s >= 100 {
		t.Fatalf("%d of 200 tasks started after cancellation", s)
	}
}

func TestMapCtxLateCancelKeepsCompletedResults(t *testing.T) {
	// ctx firing during the final task prevented nothing: the completed
	// results are returned, on serial and concurrent pools alike. (The
	// cancel inside task n-1 necessarily post-dates every submission, so
	// the all-tasks-ran condition holds deterministically.)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		out, err := MapCtx(ctx, New(workers), 4, func(ctx context.Context, i int) (int, error) {
			if i == 3 {
				cancel()
			}
			return i * 10, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: err = %v, want completed results", workers, err)
		}
		for i, v := range out {
			if v != i*10 {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
		cancel()
	}
}

func TestMapCtxTaskErrorWinsOverCancel(t *testing.T) {
	// A real task failure must not be masked by the ctx being cancelled
	// afterwards: Map's lowest-index-error rule still applies.
	sentinel := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := MapCtx(ctx, Serial(), 5, func(ctx context.Context, i int) (int, error) {
		if i == 1 {
			cancel()
			return 0, sentinel
		}
		return i, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want task error", err)
	}
}

func TestMapCtxBackgroundMatchesMap(t *testing.T) {
	out, err := MapCtx(context.Background(), New(4), 32, func(_ context.Context, i int) (int, error) {
		return i * 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*2 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestReplicateCtxSeedsStableUnderCancel(t *testing.T) {
	// Cancelling must not shift the seed stream: whatever replicates do run
	// see exactly the seeds a full run would have given them.
	seeds := DeriveSeeds(9, 6)
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	got := map[int]uint64{}
	_, err := ReplicateCtx(ctx, Serial(), 9, 6, func(ctx context.Context, rep int, seed uint64) (int, error) {
		mu.Lock()
		got[rep] = seed
		mu.Unlock()
		if rep == 1 {
			cancel()
		}
		return rep, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	for rep, seed := range got {
		if seed != seeds[rep] {
			t.Fatalf("rep %d seed %d, want %d", rep, seed, seeds[rep])
		}
	}
}

func TestGroupPeek(t *testing.T) {
	g := NewGroup[string, int]()
	if _, ok := g.Peek("missing"); ok {
		t.Fatal("Peek hit on an absent key")
	}
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		g.Do("k", func() (int, error) {
			close(started)
			<-release
			return 41, nil
		})
		close(done)
	}()
	<-started
	if _, ok := g.Peek("k"); ok {
		t.Fatal("Peek hit on an in-flight key")
	}
	close(release)
	<-done
	v, ok := g.Peek("k")
	if !ok || v != 41 {
		t.Fatalf("Peek = %d, %v after completion", v, ok)
	}
}

func TestGroupAdd(t *testing.T) {
	g := NewGroup[string, int]()
	if !g.Add("k", 5) {
		t.Fatal("Add to an empty key refused")
	}
	if v, ok := g.Peek("k"); !ok || v != 5 {
		t.Fatalf("Peek after Add = %d, %v", v, ok)
	}
	calls := 0
	if v, _ := g.Do("k", func() (int, error) { calls++; return 0, nil }); v != 5 || calls != 0 {
		t.Fatalf("Do after Add recomputed: v=%d calls=%d", v, calls)
	}
	if g.Add("k", 6) {
		t.Fatal("Add over a cached entry succeeded")
	}
	if v, _ := g.Peek("k"); v != 5 {
		t.Fatalf("losing Add clobbered the entry: %d", v)
	}

	// Add must not displace an in-flight call.
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan int)
	go func() {
		v, _ := g.Do("flight", func() (int, error) {
			close(started)
			<-release
			return 1, nil
		})
		done <- v
	}()
	<-started
	if g.Add("flight", 2) {
		t.Fatal("Add displaced an in-flight call")
	}
	close(release)
	if v := <-done; v != 1 {
		t.Fatalf("in-flight waiter got %d after Add", v)
	}
}

func TestGroupForget(t *testing.T) {
	g := NewGroup[string, int]()
	calls := 0
	fn := func() (int, error) { calls++; return calls, nil }
	g.Do("k", fn)
	g.Forget("k")
	if g.Len() != 0 {
		t.Fatalf("Len after Forget = %d", g.Len())
	}
	if v, _ := g.Do("k", fn); v != 2 || calls != 2 {
		t.Fatalf("Forget did not force recompute: v=%d calls=%d", v, calls)
	}
	g.Forget("absent") // no-op

	// Forget must not disturb an in-flight call.
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan int)
	go func() {
		v, _ := g.Do("flight", func() (int, error) {
			close(started)
			<-release
			return 9, nil
		})
		done <- v
	}()
	<-started
	g.Forget("flight")
	close(release)
	if v := <-done; v != 9 {
		t.Fatalf("in-flight waiter got %d after Forget", v)
	}
	if v, ok := g.Peek("flight"); !ok || v != 9 {
		t.Fatalf("in-flight call evicted by Forget: %d %v", v, ok)
	}
}

func TestDeriveSeeds(t *testing.T) {
	a := DeriveSeeds(1, 8)
	b := DeriveSeeds(1, 8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("derivation not deterministic")
		}
	}
	if prefix := DeriveSeeds(1, 3); prefix[0] != a[0] || prefix[2] != a[2] {
		t.Fatal("derivation not position-stable")
	}
	seen := map[uint64]bool{}
	for _, s := range a {
		if seen[s] {
			t.Fatal("duplicate derived seed")
		}
		seen[s] = true
	}
	if other := DeriveSeeds(2, 1); other[0] == a[0] {
		t.Fatal("different bases derived the same first seed")
	}
}

func TestReplicate(t *testing.T) {
	seeds := DeriveSeeds(5, 4)
	got, err := ReplicateCtx(context.Background(), New(4), 5, 4, func(_ context.Context, rep int, seed uint64) (uint64, error) {
		if seed != seeds[rep] {
			t.Errorf("rep %d seed %d, want %d", rep, seed, seeds[rep])
		}
		return seed, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != seeds[i] {
			t.Fatalf("results out of replicate order: %v", got)
		}
	}
}

func TestMapCtxPanicBecomesError(t *testing.T) {
	// A panicking task must surface as a *PanicError from MapCtx — on both
	// the serial and the concurrent path — never unwind into the caller.
	for _, workers := range []int{1, 4} {
		_, err := MapCtx(context.Background(), New(workers), 4, func(ctx context.Context, i int) (int, error) {
			if i == 2 {
				panic("boom at task 2")
			}
			return i, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Value != "boom at task 2" {
			t.Fatalf("workers=%d: panic value %v", workers, pe.Value)
		}
		if len(pe.Stack) == 0 || !strings.Contains(pe.Error(), "task panic") {
			t.Fatalf("workers=%d: error %q lacks the stack", workers, pe.Error())
		}
	}
}

func TestMapCtxPanicDoesNotPoisonPool(t *testing.T) {
	// After a panic the pool keeps working for subsequent calls.
	p := New(2)
	if _, err := MapCtx(context.Background(), p, 2, func(ctx context.Context, i int) (int, error) {
		panic("first call dies")
	}); err == nil {
		t.Fatal("panicking call reported success")
	}
	got, err := MapCtx(context.Background(), p, 3, func(ctx context.Context, i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[2] != 4 {
		t.Fatalf("results %v", got)
	}
}
