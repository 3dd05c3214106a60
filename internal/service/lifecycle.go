package service

import (
	"context"
	"fmt"
	"sync/atomic"
)

// The three resource kinds — jobs, groups, searches — share one lifecycle
// skeleton: each is minted an ID, published in a bounded ledger, moves
// through one state machine (phase), streams NDJSON events until a
// terminal state closes its Done channel, and is served by one route table
// (see route in http.go). Each kind keeps its own mu, which guards its
// phase and its event log.

// tally is one kind's lifecycle accounting: the queued and running gauges
// and the terminal counters. Only phase moves it, so every count follows
// from a transition.
type tally struct {
	queued, running         atomic.Int64
	done, failed, cancelled atomic.Int64
}

// of returns the gauge or counter of state s.
func (t *tally) of(s State) *atomic.Int64 {
	switch s {
	case StateQueued:
		return &t.queued
	case StateRunning:
		return &t.running
	case StateDone:
		return &t.done
	case StateFailed:
		return &t.failed
	}
	return &t.cancelled
}

// active counts the entries not yet terminal.
func (t *tally) active() int64 { return t.queued.Load() + t.running.Load() }

// seen counts every entry the tally has counted. It reads the states in
// lifecycle order, and move adds to the new state before taking from the
// old, so an entry in transit is never missed.
func (t *tally) seen() int64 {
	return t.queued.Load() + t.running.Load() + t.done.Load() + t.failed.Load() + t.cancelled.Load()
}

// cancelReq is what a phase knows of the cancel requests it received.
type cancelReq uint8

const (
	noCancel cancelReq = iota
	// drainCancel: every request came after the drain began.
	drainCancel
	// clientCancel: a request came before the drain began. It settles a
	// job's journal entry, whichever path settles the job.
	clientCancel
)

// phase is the lifecycle state machine each kind embeds: queued → running
// → done, failed or cancelled, with the error message, the cancel request
// and the running work's cancel hook. It has no lock: the owner's mu
// guards it, as it guards the owner's eventLog.
type phase struct {
	tally     *tally
	state     State
	err       string
	cancelReq cancelReq
	cancel    context.CancelFunc // nil until start, and for groups
}

// newPhase returns a queued phase counted in t.
func newPhase(t *tally) phase {
	t.queued.Add(1)
	return phase{tally: t, state: StateQueued}
}

// move shifts p to state to, moving its count in the tally.
func (p *phase) move(to State) {
	p.tally.of(to).Add(1)
	p.tally.of(p.state).Add(-1)
	p.state = to
}

// start moves queued → running and installs the cancel hook; false unless
// queued.
func (p *phase) start(cancel context.CancelFunc) bool {
	if p.state != StateQueued {
		return false
	}
	p.move(StateRunning)
	p.cancel = cancel
	return true
}

// settle moves p to the terminal state to with the error message msg,
// counted exactly once; false once terminal.
func (p *phase) settle(to State, msg string) bool {
	if p.state.Terminal() {
		return false
	}
	p.move(to)
	p.err = msg
	return true
}

// requestCancel records a cancel request, made after the drain began when
// draining is set, and fires the cancel hook; false once terminal.
func (p *phase) requestCancel(draining bool) bool {
	if p.state.Terminal() {
		return false
	}
	req := clientCancel
	if draining {
		req = drainCancel
	}
	p.cancelReq = max(p.cancelReq, req)
	if p.cancel != nil {
		p.cancel()
	}
	return true
}

// settler is what the ledger needs of an entry: the channel closed once
// the entry reaches a terminal state.
type settler interface {
	Done() <-chan struct{}
}

// closed reports whether ch has been closed, without blocking.
func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// ledger is the bounded, ID-addressed registry of one resource kind: the
// ID map, submission order for the list endpoint, the ID counter, and a
// weighted bound kept as a running total. Whenever an entry is published
// or settles, trim forgets the oldest settled entries (their IDs 404)
// while the total exceeds the bound. Live entries are never evicted, and
// neither is the newest entry, so a born-done submission cannot 404
// before its client even receives the ID. A ledger at rest is therefore
// within its bound, or holds only its newest entry. The ledger has no
// lock: Service.mu guards every ledger, and settlement is read from Done,
// so eviction never takes an entry's own lock.
type ledger[T settler] struct {
	node   string      // the ring node's ID prefix "n<idx>-", "" single-node
	kind   byte        // the kind's ID letter: 'j', 'g' or 's'
	bound  int         // the bound on total
	weight func(T) int // an entry's share of the bound; nil weighs each entry 1
	items  map[string]T
	order  []string // submission order
	next   int      // the last minted ID's sequence number
	total  int      // summed weight of the retained entries
}

// newLedger returns an empty ledger minting IDs for one kind on one node.
func newLedger[T settler](node string, kind byte, bound int, weight func(T) int) *ledger[T] {
	return &ledger[T]{node: node, kind: kind, bound: bound, weight: weight, items: make(map[string]T)}
}

// mint returns a fresh ID ("j000001", or "n2-j000001" in a ring).
func (l *ledger[T]) mint() string {
	l.next++
	return fmt.Sprintf("%s%c%06d", l.node, l.kind, l.next)
}

// weigh returns v's share of the bound.
func (l *ledger[T]) weigh(v T) int {
	if l.weight == nil {
		return 1
	}
	return l.weight(v)
}

// publish registers v under id as the newest entry, then trims.
func (l *ledger[T]) publish(id string, v T) {
	l.items[id] = v
	l.order = append(l.order, id)
	l.total += l.weigh(v)
	l.trim()
}

// trim evicts settled entries other than the newest, oldest first, while
// the total weight exceeds the bound.
func (l *ledger[T]) trim() {
	over := l.total - l.bound
	// The common saturated case — oldest entries already settled — is
	// O(1) per trim: drop from the front by reslicing.
	front, last := 0, len(l.order)-1
	for over > 0 && front < last && closed(l.items[l.order[front]].Done()) {
		over -= l.evict(l.order[front])
		front++
	}
	l.order = l.order[front:]
	if over <= 0 {
		return
	}
	// Rare path: something old is still live. Compact around it, bulk-
	// appending the untouched tail (always including the newest entry)
	// once the excess is gone.
	kept := l.order[:0]
	for i, id := range l.order {
		if over <= 0 || i == len(l.order)-1 {
			kept = append(kept, l.order[i:]...)
			break
		}
		if closed(l.items[id].Done()) {
			over -= l.evict(id)
			continue
		}
		kept = append(kept, id)
	}
	l.order = kept
}

// evict forgets id and returns the weight it freed.
func (l *ledger[T]) evict(id string) int {
	w := l.weigh(l.items[id])
	delete(l.items, id)
	l.total -= w
	return w
}

// settle runs settleEntry, which moves an entry to a terminal state under
// the entry's own lock, then trims every ledger, all under s.mu: a job's
// settlement can settle its group too, and no listing sees an entry
// settled before the eviction it allows. Trimming here, and not only at
// publication, is what keeps a ledger at rest within its bound.
func (s *Service) settle(settleEntry func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	settleEntry()
	s.jobs.trim()
	s.groups.trim()
	s.searches.trim()
}

// lookup finds the entry with the given ID under s.mu.
func lookup[T settler](s *Service, l *ledger[T], id string) (T, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := l.items[id]
	return v, ok
}

// statuses snapshots l's entries in submission order under s.mu, then
// renders each one's status outside it.
func statuses[T settler, S any](s *Service, l *ledger[T], status func(T) S) []S {
	s.mu.Lock()
	items := make([]T, len(l.order))
	for i, id := range l.order {
		items[i] = l.items[id]
	}
	s.mu.Unlock()
	out := make([]S, len(items))
	for i, v := range items {
		out[i] = status(v)
	}
	return out
}

// eventLog is one resource's NDJSON event history and its wake-ups:
// changed is closed and replaced on every event, done is closed once, on
// the terminal event. It has no lock: the owner's mu guards events and
// changed, and done is fixed at construction, so Done reads it lock-free.
type eventLog[E any] struct {
	events  []E
	changed chan struct{}
	done    chan struct{}
}

// newEventLog returns an empty log.
func newEventLog[E any]() eventLog[E] {
	return eventLog[E]{changed: make(chan struct{}), done: make(chan struct{})}
}

// seq is the sequence number the next event carries; events count from 1.
func (l *eventLog[E]) seq() int { return len(l.events) + 1 }

// emit appends ev and wakes stream watchers; a terminal event also closes
// done. Caller holds the owner's mu.
func (l *eventLog[E]) emit(ev E, terminal bool) {
	l.events = append(l.events, ev)
	close(l.changed)
	l.changed = make(chan struct{})
	if terminal {
		close(l.done)
	}
}

// since returns the events after the first seen ones, the channel that
// signals the next change, and whether the log is complete — the polling
// primitive behind every NDJSON stream (replay then wait, no subscriber
// bookkeeping, no dropped events). Caller holds the owner's mu.
func (l *eventLog[E]) since(seen int) (evs []E, changed <-chan struct{}, terminal bool) {
	if seen < len(l.events) {
		evs = append(evs, l.events[seen:]...)
	}
	return evs, l.changed, closed(l.done)
}
