package service

import (
	"sync"
	"time"
)

// JobGroup is one sweep (or explicit spec array) submitted as a unit: the
// service expands it into variant specs, submits each as an ordinary child
// job through the queue/cache/singleflight machinery, and aggregates their
// lifecycles here. The group itself does no simulation work — cached
// variants are born done exactly as they would be as standalone jobs — it
// only tracks, cancels, and serves its children as a set.
//
// The identity fields are immutable after SubmitGroup publishes the group;
// everything else is guarded by mu. Lock hierarchy: a Job's mu may be held
// when childEvent takes g.mu, so no JobGroup method may call into a Job
// (or the Service) while holding g.mu.
type JobGroup struct {
	// ID is the service-assigned handle ("g000001", ...).
	ID string
	// Name is the base scenario name the group expanded from (the first
	// variant's base for explicit spec arrays).
	Name string
	// Reps is the per-variant replicate count (resolved against the
	// service defaults at submission).
	Reps int
	// Priority is the queue priority every child job was submitted at.
	Priority int

	// deadline is the absolute completion deadline every child inherits
	// (zero = none). Immutable after publishGroup.
	deadline time.Time

	// names holds every variant name in expansion order — including
	// variants that were never submitted because a cancel interrupted the
	// expansion — so status can always account for the full set.
	names []string

	mu sync.Mutex
	phase
	jobs      []*Job // attached children, a prefix of names in order
	skipped   int    // trailing variants never submitted (cancel mid-expansion)
	doneN     int
	failedN   int
	cancelled int
	log       eventLog[GroupEvent]
}

// GroupEvent is one NDJSON record on a group's event stream: the group's
// state plus the per-variant terminal tallies at the moment the event
// fired. Like job events it carries no wall-clock time, so replaying a
// finished group's stream is deterministic.
type GroupEvent struct {
	// Seq numbers events from 1 within one group.
	Seq int `json:"seq"`
	// State is the group's aggregate state when the event fired.
	State State `json:"state"`
	// Variant names the child whose terminal transition fired this event
	// (empty on group-level transitions).
	Variant string `json:"variant,omitempty"`
	// Done / Failed / Cancelled / Total tally variant outcomes.
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	Total     int `json:"total"`
	// Error carries the failure reason on a failed group event.
	Error string `json:"error,omitempty"`
}

// GroupStatus is the wire snapshot of a job group, served by the group
// status and list endpoints and returned from SubmitGroup.
type GroupStatus struct {
	// ID is the group handle; the group's URLs derive from it.
	ID string `json:"id"`
	// Name is the base scenario name the group expanded from.
	Name string `json:"name"`
	// State is the aggregate lifecycle state: queued until any variant
	// makes progress, running while any is unsettled, then done (all
	// variants done), failed (any failed), or cancelled.
	State State `json:"state"`
	// Reps / Priority echo the submission knobs applied to every variant.
	Reps     int `json:"reps"`
	Priority int `json:"priority"`
	// Variants is the total variant count; Done, Failed and Cancelled
	// tally the terminal ones.
	Variants  int `json:"variants"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	// CacheHits counts variants served without recomputation.
	CacheHits int `json:"cacheHits"`
	// Error carries the submission failure reason for a failed group.
	Error string `json:"error,omitempty"`
	// Jobs holds per-variant job statuses in expansion order. Variants a
	// cancel prevented from ever being submitted appear with an empty ID
	// and state cancelled.
	Jobs []Status `json:"jobs"`
}

// newJobGroup builds a group over the given variant names, counted in t,
// and emits its initial queued event.
func newJobGroup(id, name string, names []string, reps, priority int, t *tally) *JobGroup {
	g := &JobGroup{
		ID:       id,
		Name:     name,
		Reps:     reps,
		Priority: priority,
		names:    names,
		phase:    newPhase(t),
		log:      newEventLog[GroupEvent](),
	}
	g.emitLocked("")
	return g
}

// attach appends a freshly submitted child in expansion order.
func (g *JobGroup) attach(j *Job) {
	g.mu.Lock()
	g.jobs = append(g.jobs, j)
	g.mu.Unlock()
}

// childEvent observes one child job event: the first running child moves
// the group to running, even after a cancel request, and each child's
// (exactly-once) terminal transition updates the tallies and, once every
// variant is settled, the group's own terminal state. Called with the
// child's mu held, so it must not call back into any Job.
func (g *JobGroup) childEvent(j *Job, ev Event) {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case ev.State == StateRunning:
		if g.start(nil) {
			g.emitLocked("")
		}
	case ev.State.Terminal():
		switch ev.State {
		case StateDone:
			g.doneN++
		case StateFailed:
			g.failedN++
		case StateCancelled:
			g.cancelled++
		}
		g.emitLocked(j.Spec.Name)
		g.maybeFinishLocked()
	}
}

// skipRemaining accounts for n trailing variants the submission loop never
// submitted (a cancel or a submit error interrupted the expansion): they
// count as cancelled without ever having been jobs. msg, when non-empty,
// records why and turns the group's final state into failed.
func (g *JobGroup) skipRemaining(n int, msg string) {
	if n <= 0 {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.skipped += n
	g.cancelled += n
	if msg != "" && g.err == "" {
		g.err = msg
	}
	g.emitLocked("")
	g.maybeFinishLocked()
}

// maybeFinishLocked is the group's one way to a terminal state, once every
// variant is: failed beats cancelled beats done, the final event fires
// and Done() closes. Caller holds g.mu.
func (g *JobGroup) maybeFinishLocked() {
	if g.doneN+g.failedN+g.cancelled < len(g.names) {
		return
	}
	to := StateDone
	switch {
	case g.failedN > 0 || g.err != "":
		to = StateFailed
	case g.cancelled > 0:
		to = StateCancelled
	}
	if g.settle(to, g.err) {
		g.emitLocked("")
	}
}

// emitLocked appends a group event reflecting the current tallies and
// wakes stream watchers. Caller holds g.mu.
func (g *JobGroup) emitLocked(variant string) {
	g.log.emit(GroupEvent{
		Seq:       g.log.seq(),
		State:     g.state,
		Variant:   variant,
		Done:      g.doneN,
		Failed:    g.failedN,
		Cancelled: g.cancelled,
		Total:     len(g.names),
		Error:     g.err,
	}, g.state.Terminal())
}

// Done returns a channel closed when every variant has settled and the
// group reached its terminal state.
func (g *JobGroup) Done() <-chan struct{} { return g.log.done }

// wire returns the group's ID, status document and state for the routes.
func (g *JobGroup) wire() (string, any, State) {
	st := g.Status()
	return g.ID, st, st.State
}

// cancelPending reports whether a cancel has been requested; the
// submission loop consults it between child submissions.
func (g *JobGroup) cancelPending() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cancelReq != noCancel
}

// snapshot copies the mutable aggregate under the lock; children are
// queried afterwards, outside g.mu, to respect the lock hierarchy.
func (g *JobGroup) snapshot() (jobs []*Job, skipped int, state State, doneN, failedN, cancelled int, errMsg string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]*Job(nil), g.jobs...), g.skipped, g.state, g.doneN, g.failedN, g.cancelled, g.err
}

// Status returns a consistent snapshot of the group and per-variant job
// statuses in expansion order.
func (g *JobGroup) Status() GroupStatus {
	jobs, skipped, state, doneN, failedN, cancelled, errMsg := g.snapshot()
	st := GroupStatus{
		ID:        g.ID,
		Name:      g.Name,
		State:     state,
		Reps:      g.Reps,
		Priority:  g.Priority,
		Variants:  len(g.names),
		Done:      doneN,
		Failed:    failedN,
		Cancelled: cancelled,
		Error:     errMsg,
		Jobs:      make([]Status, 0, len(g.names)),
	}
	for _, j := range jobs {
		js := j.Status()
		if js.CacheHit && js.State == StateDone {
			st.CacheHits++
		}
		st.Jobs = append(st.Jobs, js)
	}
	// Variants the cancel kept from ever being submitted: synthesized
	// entries so the set always has len(names) rows.
	for i := len(jobs); i < len(jobs)+skipped; i++ {
		st.Jobs = append(st.Jobs, Status{
			Name:     g.names[i],
			State:    StateCancelled,
			Priority: g.Priority,
			Reps:     g.Reps,
		})
	}
	return st
}

// eventsSince is eventLog.since under the group's lock.
func (g *JobGroup) eventsSince(seen int) ([]GroupEvent, <-chan struct{}, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.log.since(seen)
}

// doneJobs returns the children in expansion order when — and only when —
// the group is done (every variant completed); ok is false otherwise.
func (g *JobGroup) doneJobs() (jobs []*Job, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.state != StateDone {
		return nil, false
	}
	return append([]*Job(nil), g.jobs...), true
}
