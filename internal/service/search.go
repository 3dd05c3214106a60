package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"repro/internal/scenario"
	"repro/internal/search"
)

// ErrSearch rejects specs with a search block on the job and group
// endpoints: those endpoints run concrete experiments. Searches are
// first-class on /v1/searches, which compiles the block and drives the
// optimization server-side.
var ErrSearch = errors.New("service: spec has a search block; submit it to /v1/searches to run the optimization server-side")

// SearchJob is one adaptive search moving through the service: the
// compiled problem plus the engine goroutine driving rounds through the
// ordinary job-group machinery. Each round is a group of synthesized
// variant specs — queued, cached, deduplicated and (in coordinator mode)
// fanned across the ring exactly like any client-submitted group — so the
// search layer adds zero new execution paths; it only decides what to run
// next. Identity fields are immutable after SubmitSearch; everything else
// is guarded by mu.
type SearchJob struct {
	// ID is the service-assigned handle ("s000001", ...).
	ID string
	// Name is the base scenario name the search optimizes.
	Name string
	// Reps is the per-evaluation replicate count (halving's first rung).
	Reps int
	// Priority is the queue priority every round's jobs are submitted at.
	Priority int

	problem *search.Problem
	met     *metrics

	mu sync.Mutex
	phase
	rounds      []search.Round
	result      *search.Result
	evaluations int
	cacheHits   int
	group       *JobGroup // the in-flight round's group, for cancel fan-out
	log         eventLog[SearchEvent]
}

// SearchEvent is one NDJSON record on a search's event stream: a state
// transition, or a completed round with its variants and incumbent. Like
// job and group events it carries no wall-clock time, job IDs or cache
// information, so replaying a finished search's stream is deterministic —
// byte-identical for an identical resubmitted search.
type SearchEvent struct {
	// Seq numbers events from 1 within one search.
	Seq int `json:"seq"`
	// State is the search's state when the event fired.
	State State `json:"state"`
	// Round, when present, is the round that just completed.
	Round *search.Round `json:"round,omitempty"`
	// Error carries the failure reason on a failed event.
	Error string `json:"error,omitempty"`
}

// SearchStatus is the wire snapshot of a search, served by the status and
// list endpoints and returned from SubmitSearch. Evaluations and
// CacheHits are operational (they differ between a first run and a cache
// replay of the same search) and therefore live here, never in the result
// document or the event stream.
type SearchStatus struct {
	// ID is the search handle; the search's URLs derive from it.
	ID string `json:"id"`
	// Name is the base scenario name.
	Name string `json:"name"`
	// State is the lifecycle state (queued → running → terminal).
	State State `json:"state"`
	// Strategy, Objective, Metric and Parameter echo the compiled search.
	Strategy  string `json:"strategy"`
	Objective string `json:"objective"`
	Metric    string `json:"metric"`
	Parameter string `json:"parameter"`
	// Reps / Priority echo the submission knobs.
	Reps     int `json:"reps"`
	Priority int `json:"priority"`
	// Rounds counts completed rounds so far.
	Rounds int `json:"rounds"`
	// Evaluations counts variant evaluations submitted as child jobs —
	// equal to the number of distinct cache keys the search touched.
	Evaluations int `json:"evaluations"`
	// CacheHits counts evaluations served without simulation work; a
	// resubmitted identical search reports CacheHits == Evaluations.
	CacheHits int `json:"cacheHits"`
	// Pruned counts variants dropped from contention across rounds.
	Pruned int `json:"pruned"`
	// Incumbent is the best feasible variant so far.
	Incumbent *search.Variant `json:"incumbent,omitempty"`
	// Error carries the failure reason for a failed search.
	Error string `json:"error,omitempty"`
}

// newSearchJob builds a search in state queued and emits its initial
// event.
func newSearchJob(id string, p *search.Problem, reps, priority int, met *metrics) *SearchJob {
	sj := &SearchJob{
		ID:       id,
		Name:     p.Base.Name,
		Reps:     reps,
		Priority: priority,
		problem:  p,
		met:      met,
		phase:    newPhase(&met.searches),
		log:      newEventLog[SearchEvent](),
	}
	sj.emitLocked(nil)
	return sj
}

// Status returns a consistent snapshot.
func (sj *SearchJob) Status() SearchStatus {
	sj.mu.Lock()
	defer sj.mu.Unlock()
	st := SearchStatus{
		ID:          sj.ID,
		Name:        sj.Name,
		State:       sj.state,
		Strategy:    sj.problem.Strategy,
		Objective:   sj.problem.Objective,
		Metric:      sj.problem.Metric,
		Parameter:   sj.problem.Parameter,
		Reps:        sj.Reps,
		Priority:    sj.Priority,
		Rounds:      len(sj.rounds),
		Evaluations: sj.evaluations,
		CacheHits:   sj.cacheHits,
		Error:       sj.err,
	}
	for _, rd := range sj.rounds {
		st.Pruned += rd.Pruned
		if rd.Incumbent != nil {
			st.Incumbent = rd.Incumbent
		}
	}
	return st
}

// Done returns a channel closed when the search reaches a terminal state.
func (sj *SearchJob) Done() <-chan struct{} { return sj.log.done }

// wire returns the search's ID, status document and state for the routes.
func (sj *SearchJob) wire() (string, any, State) {
	st := sj.Status()
	return sj.ID, st, st.State
}

// Result returns the final search result once the search is done.
func (sj *SearchJob) Result() (*search.Result, bool) {
	sj.mu.Lock()
	defer sj.mu.Unlock()
	if sj.state != StateDone || sj.result == nil {
		return nil, false
	}
	return sj.result, true
}

// emitLocked appends an event reflecting the current state and wakes
// stream watchers. Caller holds sj.mu.
func (sj *SearchJob) emitLocked(round *search.Round) {
	sj.log.emit(SearchEvent{Seq: sj.log.seq(), State: sj.state, Round: round, Error: sj.err}, sj.state.Terminal())
}

// eventsSince is eventLog.since under the search's lock.
func (sj *SearchJob) eventsSince(seen int) ([]SearchEvent, <-chan struct{}, bool) {
	sj.mu.Lock()
	defer sj.mu.Unlock()
	return sj.log.since(seen)
}

// begin moves queued → running and installs the engine's cancel hook; it
// fails if a DELETE raced the engine goroutine's start.
func (sj *SearchJob) begin(cancel context.CancelFunc) bool {
	sj.mu.Lock()
	defer sj.mu.Unlock()
	if sj.cancelReq != noCancel || !sj.start(cancel) {
		return false
	}
	sj.emitLocked(nil)
	return true
}

// observeRound records one completed round and streams it.
func (sj *SearchJob) observeRound(rd search.Round) {
	sj.met.searchRounds.Add(1)
	sj.met.searchPruned.Add(int64(rd.Pruned))
	sj.mu.Lock()
	defer sj.mu.Unlock()
	sj.rounds = append(sj.rounds, rd)
	sj.emitLocked(&rd)
}

// setGroup publishes the in-flight round's group so a concurrent cancel
// can fan out to it; clearing (nil) marks the gap between rounds.
func (sj *SearchJob) setGroup(g *JobGroup) {
	sj.mu.Lock()
	sj.group = g
	sj.mu.Unlock()
}

// addTallies folds one round's operational counts into the status.
func (sj *SearchJob) addTallies(evaluations, cacheHits int) {
	sj.mu.Lock()
	sj.evaluations += evaluations
	sj.cacheHits += cacheHits
	sj.mu.Unlock()
}

// settle is the search's one way to a terminal state: done with res,
// failed with msg, or cancelled. As for a job, a cancel request wins over
// a result that arrives after it, since the DELETE was acknowledged.
func (sj *SearchJob) settle(to State, msg string, res *search.Result) {
	sj.mu.Lock()
	defer sj.mu.Unlock()
	if to == StateDone && sj.cancelReq != noCancel {
		to, res = StateCancelled, nil
	}
	if sj.phase.settle(to, msg) {
		sj.result = res
		sj.emitLocked(nil)
	}
}

// requestCancel asks the search to stop, returning the in-flight round's
// group (if any) for the caller to fan the cancel out to; draining says
// whether the drain had begun. ok is false once terminal.
func (sj *SearchJob) requestCancel(draining bool) (g *JobGroup, ok bool) {
	sj.mu.Lock()
	defer sj.mu.Unlock()
	if !sj.phase.requestCancel(draining) {
		return nil, false
	}
	return sj.group, true
}

// SubmitSearch compiles a spec with a search block and starts the engine,
// returning the search handle immediately. reps is the per-evaluation
// replicate count (<= 0 means the server default); the engine may grow it
// per round up to MaxReps under the halving strategy. The engine goroutine
// submits each round as an ordinary job group, so every evaluation flows
// through the queue, cache, singleflight and — in coordinator mode — the
// ring, and a resubmitted identical search is a pure cache replay.
func (s *Service) SubmitSearch(spec *scenario.Spec, reps, priority int) (*SearchJob, error) {
	if spec.Search == nil {
		return nil, errors.New("service: spec has no search block")
	}
	reps, err := s.resolveReps(reps)
	if err != nil {
		return nil, err
	}
	p, err := search.Compile(spec, reps, s.cfg.MaxReps)
	if err != nil {
		return nil, err
	}
	if n := searchRoundBound(p); n > s.cfg.MaxGroupVariants {
		return nil, fmt.Errorf("service: search rounds may reach %d variants, more than the group limit %d", n, s.cfg.MaxGroupVariants)
	}

	s.mu.Lock()
	if s.draining.Load() {
		// A search's engine goroutine joins s.wg, which Close waits on once
		// draining is set. Close sets it under s.mu, so checking it and
		// joining wg under s.mu are one step that Close cannot split.
		s.mu.Unlock()
		return nil, errors.New("service: draining; not accepting searches")
	}
	id := s.searches.mint()
	sj := newSearchJob(id, p, reps, priority, &s.met)
	s.searches.publish(id, sj)
	s.wg.Add(1)
	s.mu.Unlock()

	go func() {
		defer s.wg.Done()
		s.runSearch(sj)
	}()
	return sj, nil
}

// searchRoundBound is the largest candidate count any single round of the
// compiled search can propose — what one round charges against the group
// limit.
func searchRoundBound(p *search.Problem) int {
	n := p.Points
	if len(p.Values) > 0 && n < len(p.Values) {
		n = len(p.Values)
	}
	return n
}

// runSearch is the engine goroutine: run to completion, then settle the
// terminal state.
func (s *Service) runSearch(sj *SearchJob) {
	ctx, cancel := context.WithCancel(s.base)
	defer cancel()
	if !sj.begin(cancel) {
		s.settle(func() { sj.settle(StateCancelled, "", nil) })
		return
	}
	res, err := search.Run(ctx, sj.problem, &groupEvaluator{s: s, sj: sj}, sj.observeRound)
	to, msg := StateDone, ""
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		// DELETE or shutdown; either way the search was stopped, not
		// broken.
		to, res = StateCancelled, nil
	default:
		to, msg, res = StateFailed, err.Error(), nil
	}
	s.settle(func() { sj.settle(to, msg, res) })
}

// groupEvaluator adapts one search's round submissions onto the service's
// job-group machinery: submit, wait, read summaries back out of the child
// artifacts. It implements search.Evaluator.
type groupEvaluator struct {
	s  *Service
	sj *SearchJob
}

// EvaluateRound submits the round's candidates as one job group and
// blocks until every variant settles, returning each candidate's summary
// metrics in order. A context cut (DELETE, shutdown, MaxSeconds) cancels
// the in-flight group before returning.
func (e *groupEvaluator) EvaluateRound(ctx context.Context, round int, cands []search.Candidate) ([]map[string]float64, error) {
	specs := make([]*scenario.Spec, len(cands))
	for i, c := range cands {
		specs[i] = c.Spec
	}
	g, err := e.s.SubmitGroup(fmt.Sprintf("%s-r%d", e.sj.Name, round), specs, cands[0].Reps, e.sj.Priority)
	if err != nil {
		return nil, fmt.Errorf("search round %d: %w", round, err)
	}
	e.sj.setGroup(g)
	defer e.sj.setGroup(nil)
	select {
	case <-g.Done():
	case <-ctx.Done():
		e.s.cancelGroup(g)
		<-g.Done()
		return nil, ctx.Err()
	}
	st := g.Status()
	e.sj.addTallies(len(cands), st.CacheHits)
	switch st.State {
	case StateDone:
	case StateCancelled:
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, context.Canceled
	default:
		return nil, fmt.Errorf("search round %d: group %s failed: %s", round, g.ID, groupFailure(st))
	}
	jobs, ok := g.doneJobs()
	if !ok {
		return nil, fmt.Errorf("search round %d: group %s lost its results", round, g.ID)
	}
	out := make([]map[string]float64, len(jobs))
	for i, j := range jobs {
		summary, err := jobSummary(j)
		if err != nil {
			return nil, fmt.Errorf("search round %d: %w", round, err)
		}
		out[i] = summary
	}
	return out, nil
}

// groupFailure digs the most useful failure reason out of a failed
// group's status: the group-level error, else the first failed variant's.
func groupFailure(st GroupStatus) string {
	if st.Error != "" {
		return st.Error
	}
	for _, js := range st.Jobs {
		if js.State == StateFailed && js.Error != "" {
			return fmt.Sprintf("variant %s: %s", js.Name, js.Error)
		}
	}
	return "variant failed"
}

// jobSummary reads a done child job's summary metrics back out of its
// rendered result artifact — identical bytes whether the job computed
// locally, was served from cache, or executed on a remote peer.
func jobSummary(j *Job) (map[string]float64, error) {
	art, ok := j.Artifacts()
	if !ok {
		return nil, fmt.Errorf("variant %s has no artifacts", j.Spec.Name)
	}
	b, ok := art.file(artResult)
	if !ok {
		return nil, fmt.Errorf("variant %s has no %s artifact", j.Spec.Name, artResult)
	}
	var doc struct {
		Summary map[string]float64 `json:"summary"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("variant %s result: %w", j.Spec.Name, err)
	}
	return doc.Summary, nil
}

// Search looks a search up by ID.
func (s *Service) Search(id string) (*SearchJob, bool) { return lookup(s, s.searches, id) }

// Searches returns status snapshots of every search in submission order.
func (s *Service) Searches() []SearchStatus { return statuses(s, s.searches, (*SearchJob).Status) }

// CancelSearch stops the identified search: the engine context is
// cancelled (no further rounds) and the cancel fans out to the in-flight
// round's group, stopping its queued and running children. The second
// return reports whether the search existed; the first whether
// cancellation was possible (false once terminal).
func (s *Service) CancelSearch(id string) (cancelled, found bool) {
	sj, ok := s.Search(id)
	if !ok {
		return false, false
	}
	return s.cancelSearch(sj), true
}

// cancelSearch requests the search's cancel and fans it out to the
// in-flight round's group.
func (s *Service) cancelSearch(sj *SearchJob) bool {
	g, ok := sj.requestCancel(s.draining.Load())
	if g != nil {
		s.cancelGroup(g)
	}
	return ok
}
