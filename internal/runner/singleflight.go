package runner

import "sync"

// call is one execution of a Group key's function: in flight until done is
// closed, then a cache entry if it succeeded.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Group is a memoizing per-key singleflight: the first Do for a key runs
// the function, concurrent Dos for the same key wait for that result, and
// successful results are cached for later callers. Distinct keys never
// block each other — the Group's lock is held only to look up or install a
// call, not while the function runs. Failed calls are forgotten so a later
// Do can retry. Create one with NewGroup.
type Group[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*call[V]
}

// NewGroup returns an empty group.
func NewGroup[K comparable, V any]() *Group[K, V] {
	return &Group[K, V]{calls: make(map[K]*call[V])}
}

// Do returns the cached value for key, or runs fn to produce it. Exactly
// one caller runs fn per key until the key is forgotten; the rest wait.
func (g *Group[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.val, c.err
	}
	c := &call[V]{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()
	close(c.done)

	if c.err != nil {
		g.mu.Lock()
		// Remove only our own entry: once done, it may already have been
		// forgotten and a retry installed a fresh call in the meantime.
		if g.calls[key] == c {
			delete(g.calls, key)
		}
		g.mu.Unlock()
	}
	return c.val, c.err
}

// Peek returns the completed cached value for key without running or
// waiting for anything: ok is false while the key is absent or still in
// flight. It lets a cache front-end (e.g. the simulation service's submit
// path) answer instantly from memoized results while leaving computation
// and in-flight coalescing to Do.
func (g *Group[K, V]) Peek(key K) (V, bool) {
	var zero V
	g.mu.Lock()
	c, ok := g.calls[key]
	g.mu.Unlock()
	if !ok {
		return zero, false
	}
	select {
	case <-c.done:
	default:
		return zero, false
	}
	if c.err != nil {
		return zero, false
	}
	return c.val, true
}

// Add installs val as the completed cached value for key, reporting
// whether it was installed: false when a cached or in-flight call already
// holds the key, which preserves Do's exactly-once semantics. It lets a
// caller seed the memo from an external source (e.g. a disk cache layer)
// without blocking in Do.
func (g *Group[K, V]) Add(key K, val V) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.calls[key]; ok {
		return false
	}
	c := &call[V]{done: make(chan struct{}), val: val}
	close(c.done)
	g.calls[key] = c
	return true
}

// Forget drops the completed entry for key, if any, so the next Do
// recomputes it. An in-flight call is left alone — its waiters still get
// the result and it caches as usual. This is the eviction hook for
// callers bounding a Group used as a long-lived memo cache.
func (g *Group[K, V]) Forget(key K) {
	g.mu.Lock()
	defer g.mu.Unlock()
	c, ok := g.calls[key]
	if !ok {
		return
	}
	select {
	case <-c.done:
	default:
		return
	}
	delete(g.calls, key)
}

// Len reports the number of cached or in-flight keys.
func (g *Group[K, V]) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}
