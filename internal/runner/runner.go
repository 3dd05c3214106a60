// Package runner is the experiment-level parallelism layer promised by the
// sim core's design contract: the discrete-event engine itself is
// single-threaded, so speed at suite scale comes from executing independent
// experiment runs — one per figure, per sweep point, per replicate seed —
// concurrently across a bounded worker pool.
//
// Determinism is preserved by construction: every task derives its own
// sim.RNG from an explicit seed and shares no mutable state with its
// siblings, so a run fanned out over N workers produces byte-identical
// results to the same run executed serially. The package also provides a
// per-key singleflight cache (Group) so that tasks requesting the same
// expensive result share one computation without serialising unrelated
// ones, and the seed derivation that replicate runs share.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a task panic converted into an ordinary error: Map and its
// derivatives recover panics inside task functions so one broken (or
// fault-injected) experiment cannot take down a resident process hosting
// many, and so pool-worker goroutines can never die with an unjoined
// WaitGroup. The panic value and the goroutine stack at the panic site are
// preserved for the caller's diagnostics (the service surfaces both in the
// failed job's status).
type PanicError struct {
	// Value is what the task passed to panic.
	Value any
	// Stack is the panicking goroutine's stack trace, captured at recover.
	Stack []byte
}

// Error summarizes the panic with its stack.
func (e *PanicError) Error() string {
	return fmt.Sprintf("task panic: %v\n%s", e.Value, e.Stack)
}

// safeCall invokes fn, converting a panic into a *PanicError. A
// runtime.Goexit (from something like t.Fatal inside a task) is not
// recoverable and keeps its normal semantics.
func safeCall[T any](ctx context.Context, i int, fn func(ctx context.Context, i int) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, i)
}

// Pool bounds the number of experiment tasks running concurrently. The
// zero-cost way to get serial execution (stable per-task timing for
// benchmarks, simpler debugging) is a pool of one worker.
type Pool struct {
	workers int
	sem     chan struct{}
}

// New returns a pool with the given worker count; workers <= 0 selects
// GOMAXPROCS.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, sem: make(chan struct{}, workers)}
}

// Serial returns a one-worker pool: Map degenerates to an in-order loop on
// the calling goroutine.
func Serial() *Pool { return New(1) }

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

var (
	defaultOnce sync.Once
	defaultPool *Pool
)

// Default returns the shared GOMAXPROCS-sized pool used when callers pass a
// nil *Pool.
func Default() *Pool {
	defaultOnce.Do(func() { defaultPool = New(0) })
	return defaultPool
}

func orDefault(p *Pool) *Pool {
	if p == nil {
		return Default()
	}
	return p
}

// Map runs fn(0..n-1) on the pool and returns the results in index order.
// A nil pool means Default(). A task that panics is recovered and reported
// as a *PanicError instead of crashing the process (one broken experiment
// must not take down a resident service running many). On error Map
// returns the lowest-index error observed and fails fast: with a serial pool later tasks are not started
// (matching a plain loop); with a concurrent pool already-started tasks
// finish but no further tasks are submitted. fn must not call Map on the
// same pool (tasks waiting on nested tasks can exhaust the workers and
// deadlock); use a separate pool for nested fan-out.
func Map[T any](p *Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	return MapCtx(context.Background(), p, n, func(_ context.Context, i int) (T, error) {
		return fn(i)
	})
}

// MapCtx is Map with cooperative cancellation: once ctx is done no further
// task starts — a serial pool stops between iterations, a concurrent pool
// stops submitting while already-running tasks finish — and MapCtx returns
// ctx.Err() (a task error from a lower index wins, matching Map's error
// rule). A Map whose every task already ran to completion returns its
// results even if ctx fired during the last task: the cancellation
// arrived too late to prevent any work, and discarding a finished result
// would only force the caller to redo it. This holds identically on
// serial and concurrent pools, so outcomes never depend on pool width.
// Each task receives ctx so long-running bodies can observe the
// cancellation themselves; a task already executing when ctx fires is
// never interrupted by the pool.
func MapCtx[T any](ctx context.Context, p *Pool, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	p = orDefault(p)
	out := make([]T, n)
	if p.workers == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := safeCall(ctx, i, fn)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, n)
	var failed atomic.Bool
	var wg sync.WaitGroup
	submitted := 0
submit:
	for i := 0; i < n; i++ {
		if failed.Load() {
			break
		}
		// A fired ctx must win even when a sem slot is also free — the
		// two-case select alone picks uniformly between ready cases, which
		// would launch tasks after cancellation about half the time.
		select {
		case <-ctx.Done():
			break submit
		default:
		}
		select {
		case <-ctx.Done():
			break submit
		case p.sem <- struct{}{}:
		}
		i := i
		submitted++
		wg.Add(1)
		go func() {
			defer func() {
				<-p.sem
				wg.Done()
			}()
			out[i], errs[i] = safeCall(ctx, i, fn)
			if errs[i] != nil {
				failed.Store(true)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if submitted < n {
		// Cancellation (the only error-free way to stop submitting)
		// actually prevented work: report it.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
