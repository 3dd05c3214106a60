package service

import (
	"context"
	"sync"
	"time"

	"repro/internal/scenario"
)

// State is a job's lifecycle position. The machine is
// queued → running → {done, failed, cancelled}; a queued job may also jump
// straight to done (submit-time cache hit) or cancelled (DELETE before any
// runner picked it up).
type State string

// The job states, in lifecycle order.
const (
	// StateQueued: accepted and waiting in the priority queue.
	StateQueued State = "queued"
	// StateRunning: a job runner is executing (or deduplicating) it.
	StateRunning State = "running"
	// StateDone: the result is available from the result endpoint.
	StateDone State = "done"
	// StateFailed: the run errored; Event.Error / the status carry why.
	StateFailed State = "failed"
	// StateCancelled: stopped by DELETE or service shutdown before a
	// result was produced.
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Event is one NDJSON record on a job's event stream. Events carry no
// wall-clock time, so a replayed stream is deterministic for a cached or
// re-run job — sequence numbers order them.
type Event struct {
	// Seq numbers events from 1 within one job.
	Seq int `json:"seq"`
	// State is the job's state when the event fired.
	State State `json:"state"`
	// RepsDone / RepsTotal report replication progress.
	RepsDone  int `json:"repsDone"`
	RepsTotal int `json:"repsTotal"`
	// CacheHit marks a terminal done event served without recomputation.
	CacheHit bool `json:"cacheHit,omitempty"`
	// Error carries the failure reason on a failed event.
	Error string `json:"error,omitempty"`
}

// Job is one submitted scenario run moving through the service. The
// identity fields are immutable after Submit; everything else is guarded
// by mu and observed through Status and the event stream.
type Job struct {
	// ID is the service-assigned handle ("j000001", ...).
	ID string
	// Spec is the validated scenario (sweepless; see Service.Submit).
	Spec *scenario.Spec
	// Key is the result-cache key: spec hash × replicate count.
	Key string
	// Reps is the replicate count the result aggregates over.
	Reps int
	// Priority orders the queue; higher runs first, FIFO within a level.
	Priority int
	// Deadline, when non-zero, is the absolute completion deadline: the
	// run is cut off at the next replicate boundary past it and the job
	// fails with a deadline error. Immutable after Submit.
	Deadline time.Time

	// group, when non-nil, is the job group this job is a variant of; the
	// group observes every event the job emits. Immutable after newJob.
	group *JobGroup

	// hash is the bare canonical spec hash (Key without the reps suffix),
	// the coordinator's routing key. Immutable after newJob.
	hash string

	mu sync.Mutex
	phase
	repsDone int
	cacheHit bool
	log      eventLog[Event]
	art      *artifacts
}

// Status is the wire snapshot of a job, served by the status and list
// endpoints and returned from Submit.
type Status struct {
	// ID is the job handle; the job's URLs derive from it.
	ID string `json:"id"`
	// Name is the scenario name from the spec.
	Name string `json:"name"`
	// Key is the result-cache key (also `scda-sim -hash` plus the reps).
	Key string `json:"key"`
	// State is the current lifecycle state.
	State State `json:"state"`
	// Priority echoes the submit-time queue priority.
	Priority int `json:"priority"`
	// Reps / RepsDone report replication progress.
	Reps     int `json:"reps"`
	RepsDone int `json:"repsDone"`
	// CacheHit reports whether the result was served without recomputation.
	CacheHit bool `json:"cacheHit"`
	// Error carries the failure reason for a failed job.
	Error string `json:"error,omitempty"`
}

func newJob(id string, spec *scenario.Spec, key, hash string, reps, priority int, deadline time.Time, g *JobGroup, t *tally) *Job {
	j := &Job{
		ID:       id,
		Spec:     spec,
		Key:      key,
		hash:     hash,
		Reps:     reps,
		Priority: priority,
		Deadline: deadline,
		group:    g,
		phase:    newPhase(t),
		log:      newEventLog[Event](),
	}
	j.emitLocked() // the initial queued event
	return j
}

// Status returns a consistent snapshot.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID:       j.ID,
		Name:     j.Spec.Name,
		Key:      j.Key,
		State:    j.state,
		Priority: j.Priority,
		Reps:     j.Reps,
		RepsDone: j.repsDone,
		CacheHit: j.cacheHit,
		Error:    j.err,
	}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.log.done }

// wire returns the job's ID, status document and state for the routes.
func (j *Job) wire() (string, any, State) {
	st := j.Status()
	return j.ID, st, st.State
}

// Artifacts returns the rendered result files once the job is done.
func (j *Job) Artifacts() (*artifacts, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone || j.art == nil {
		return nil, false
	}
	return j.art, true
}

// emitLocked appends an event reflecting the current state, wakes stream
// watchers, and forwards the event to the owning group (if any). Callers
// hold j.mu; the lock order j.mu → group.mu is part of the service's lock
// hierarchy (the group never calls back into a job while holding its own
// lock).
func (j *Job) emitLocked() {
	ev := Event{
		Seq:       j.log.seq(),
		State:     j.state,
		RepsDone:  j.repsDone,
		RepsTotal: j.Reps,
		CacheHit:  j.cacheHit && j.state == StateDone,
		Error:     j.err,
	}
	j.log.emit(ev, j.state.Terminal())
	if j.group != nil {
		j.group.childEvent(j, ev)
	}
}

// eventsSince is eventLog.since under the job's lock.
func (j *Job) eventsSince(seen int) ([]Event, <-chan struct{}, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.since(seen)
}

// begin moves queued → running and installs the cancel hook; it fails if
// a cancel was requested while the job waited in the queue.
func (j *Job) begin(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cancelReq != noCancel || !j.start(cancel) {
		return false
	}
	j.emitLocked()
	return true
}

// progress records done completed replicates.
func (j *Job) progress(done int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning || done <= j.repsDone {
		return
	}
	j.repsDone = done
	j.emitLocked()
}

// settle is the job's one way to a terminal state: done with art, failed
// with msg, or cancelled, counted once by its phase and announced by the
// terminal event. A cancel request wins over a result that arrives after
// it, since the DELETE was acknowledged. settle reports whether the job's
// work is still owed — it ended cancelled, and no cancel was requested
// before the drain began — in which case its journal entry stays.
func (j *Job) settle(to State, msg string, art *artifacts, cacheHit bool) (owed bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if to == StateDone && j.cancelReq != noCancel {
		to = StateCancelled
	}
	if j.phase.settle(to, msg) {
		if to == StateDone {
			j.art, j.cacheHit, j.repsDone = art, cacheHit, j.Reps
		}
		j.emitLocked()
	}
	return j.state == StateCancelled && j.cancelReq != clientCancel
}

// clientCancelled reports whether the job ended cancelled at a client's
// request, so its work is not owed across a restart.
func (j *Job) clientCancelled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == StateCancelled && j.cancelReq == clientCancel
}

// requestCancel asks the job to stop; draining says whether the drain had
// begun. A running job has its context cancelled, taking effect at the
// next replicate boundary. A queued one is the caller's to settle (queued
// reports that): no runner will start it now. ok is false once terminal.
func (j *Job) requestCancel(draining bool) (ok, queued bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.phase.requestCancel(draining), j.state == StateQueued
}
