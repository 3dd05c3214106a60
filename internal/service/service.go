// Package service turns the one-shot scenario runner into a resident
// simulation service: the subsystem behind the scda-serve binary. Clients
// POST declarative scenario specs (the internal/scenario wire format,
// strictly parsed and validated); the service queues them by priority,
// executes them over a bounded runner.Pool with per-job replication, and
// serves status, results (JSON or the CLI's byte-identical CSVs) and an
// NDJSON progress stream per job, plus /healthz and Prometheus-text
// /metrics for operators.
//
// The core of the design is the content-addressed result cache: jobs are
// keyed by the canonical spec hash (scenario.Spec.Hash) × replicate count,
// deduplicated through runner.Group singleflight — concurrent identical
// submissions share one computation, later ones are served from memory (or
// the optional disk layer, bounded by entry-count and byte caps) without
// recomputation. Because scenario runs are deterministic, a cache hit is
// indistinguishable from a fresh run byte for byte, which is what makes
// caching sound.
//
// Sweep specs are first-class through job groups: one POST expands a
// sweep server-side, submits every variant as an ordinary cached child
// job, and aggregates status, events, cancellation and results (the
// concatenated sweep CSV is byte-identical to scda-bench -scenario-dir
// files for the same variants). See JobGroup.
//
// Everything is stdlib: net/http for the API, container/heap for the
// queue, crypto/sha256 (via scenario) for the addresses.
package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/ring"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// Config sizes the service; the zero value is usable.
type Config struct {
	// Workers is the replicate fan-out pool width shared by all running
	// jobs (0 = GOMAXPROCS).
	Workers int
	// JobRunners is the number of jobs executing concurrently (0 = 2).
	JobRunners int
	// CacheDir enables the disk cache layer under that directory
	// (one file per cache key); "" keeps the cache memory-only.
	CacheDir string
	// DefaultReps is the replicate count when a submission omits ?reps
	// (0 = 1).
	DefaultReps int
	// MaxReps bounds per-job replication (0 = 64).
	MaxReps int
	// JobHistory bounds the job ledger (0 = 4096): once exceeded, the
	// oldest *terminal* jobs are forgotten — their IDs 404 — so a
	// resident service under sustained traffic holds bounded memory.
	// Active jobs are never evicted, and results live on in the
	// content-addressed cache regardless.
	JobHistory int
	// CacheEntries bounds the in-memory result cache (0 = 1024): beyond
	// it, the oldest completed entries are evicted FIFO. An evicted
	// result is recomputed on resubmission — or reloaded from the disk
	// layer when CacheDir is set.
	CacheEntries int
	// CacheMaxEntries bounds the disk cache layer's entry count
	// (0 = 4096, negative = unbounded): beyond it the oldest entries are
	// removed from disk, oldest first. Ignored without CacheDir.
	CacheMaxEntries int
	// CacheMaxBytes bounds the disk cache layer's total size in bytes
	// (0 = 1 GiB, negative = unbounded), enforced with the same
	// oldest-first eviction. Ignored without CacheDir.
	CacheMaxBytes int64
	// GroupHistory bounds the job-group ledger by the *total variant
	// count* retained across groups (0 = 4096), evicting the oldest
	// terminal groups once exceeded (their IDs 404). Counting variants
	// rather than groups is deliberate: a retained group pins its child
	// jobs — rendered artifacts included — beyond the job ledger's own
	// pruning, so a per-group bound would really be a
	// groups × MaxGroupVariants artifact-set bound. Active groups are
	// never evicted.
	GroupHistory int
	// MaxGroupVariants bounds how many variants one group submission may
	// expand to (0 = 256), so a hostile or typo'd sweep cannot enqueue
	// unbounded work in one request.
	MaxGroupVariants int
	// SearchHistory bounds the search ledger (0 = 256): once exceeded,
	// the oldest terminal searches are forgotten — their IDs 404. Active
	// searches are never evicted, and the child jobs a search ran remain
	// subject to the job and group ledger bounds independently.
	SearchHistory int
	// SLO is the target queueing latency for admission control: an HTTP
	// submission predicted to wait longer than this (EWMA job cost ×
	// queue depth at-or-above its priority / runners) is rejected with
	// 429 and a Retry-After. 0 disables load shedding.
	SLO time.Duration
	// MaxJobRuntime bounds any single job's wall time server-side,
	// enforced at replicate boundaries; a job past it fails with a
	// deadline error. 0 = unlimited. Client ?deadline= values tighten
	// but never extend this.
	MaxJobRuntime time.Duration
	// JournalDir enables the write-ahead job journal under that
	// directory: accepted jobs are persisted until they reach a
	// client-driven terminal state, and a restart with the same
	// directory resubmits whatever a crash (or drain) left behind.
	// "" disables journaling.
	JournalDir string
	// HeartbeatInterval is the idle-gap bound on live NDJSON streams:
	// a stream with no event for this long emits a heartbeat line so
	// intermediaries and clients can distinguish a slow job from a dead
	// connection. 0 = 15s; negative disables heartbeats.
	HeartbeatInterval time.Duration
	// Chaos, when non-nil, injects deterministic synthetic faults
	// (handler latency, job panics, disk I/O errors, dropped streams)
	// for robustness testing. Nil — the default — is fully inert.
	Chaos *chaos.Injector

	// Self is this process's own base URL within a fleet (e.g.
	// "http://10.0.0.1:8080"); it must appear in Peers. Setting Self or
	// Peers turns on coordinator mode: submissions route across the
	// fleet by spec hash. Both empty — the default — is single-node.
	Self string
	// Peers is the static fleet: every peer's base URL, Self included.
	// All peers must be started with the same set (order and trailing
	// slashes are normalized away).
	Peers []string
	// ProbeInterval is the background peer health-probe period in
	// coordinator mode (0 = 2s; negative disables the background loop,
	// leaving health to inline reports and explicit ProbePeers calls —
	// the deterministic mode tests use).
	ProbeInterval time.Duration
}

// The service's documented mutex hierarchy, enforced statically by the
// scda-lint lockorder analyzer: Submit completes a cache-hit job while
// holding s.mu (s.mu → j.mu), and a job event fans out to its group while
// j.mu is held (j.mu → g.mu) — so no method may acquire s.mu while holding
// j.mu, or touch a Job or the Service while holding g.mu.
//
//scda:lockorder Service.mu Job.mu JobGroup.mu

// Service is the resident simulation service. Create with New, expose
// with Handler, stop with Close.
type Service struct {
	cfg   Config
	pool  *runner.Pool
	queue *jobQueue
	group *runner.Group[string, *artifacts]
	met   metrics

	disk    *diskCache // nil when CacheDir is unset
	adm     *admission
	journal *journal        // nil when JournalDir is unset
	chaos   *chaos.Injector // nil = no fault injection

	// Coordinator mode (all nil/empty single-node): the placement ring,
	// the peer health prober, the fleet-internal HTTP client, and the
	// "n<idx>-" prefix stamped on job and group IDs so any peer can
	// route any ID back to the peer that minted it.
	ring     *ring.Ring
	prober   *ring.Prober
	ringHTTP *http.Client
	idPrefix string

	// draining is set at Close, under mu: cancels requested from then on
	// retain their jobs' journal entries, /readyz is unready, and no new
	// search joins wg.
	draining atomic.Bool

	mu       sync.Mutex
	jobs     *ledger[*Job]
	groups   *ledger[*JobGroup] // weighed by variant count (see GroupHistory)
	searches *ledger[*SearchJob]

	cacheMu   sync.Mutex
	cacheKeys []string // completed-entry FIFO backing CacheEntries eviction
	cacheSeen map[string]bool

	base       context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
	closeOnce  sync.Once
}

// New starts a service: JobRunners goroutines consuming the queue over a
// Workers-wide replicate pool.
func New(cfg Config) *Service {
	if cfg.JobRunners <= 0 {
		cfg.JobRunners = 2
	}
	if cfg.DefaultReps <= 0 {
		cfg.DefaultReps = 1
	}
	if cfg.MaxReps <= 0 {
		cfg.MaxReps = 64
	}
	if cfg.DefaultReps > cfg.MaxReps {
		// A default above the cap would turn every ?reps-less submission
		// into a client-visible 400 for a server-side misconfiguration.
		cfg.DefaultReps = cfg.MaxReps
	}
	if cfg.JobHistory <= 0 {
		cfg.JobHistory = 4096
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 1024
	}
	if cfg.CacheMaxEntries == 0 {
		cfg.CacheMaxEntries = 4096
	}
	if cfg.CacheMaxBytes == 0 {
		cfg.CacheMaxBytes = 1 << 30
	}
	if cfg.GroupHistory <= 0 {
		cfg.GroupHistory = 4096
	}
	if cfg.MaxGroupVariants <= 0 {
		cfg.MaxGroupVariants = 256
	}
	if cfg.SearchHistory <= 0 {
		cfg.SearchHistory = 256
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 15 * time.Second
	}
	s := &Service{
		cfg:       cfg,
		pool:      runner.New(cfg.Workers),
		queue:     newJobQueue(),
		group:     runner.NewGroup[string, *artifacts](),
		adm:       newAdmission(cfg.SLO, cfg.JobRunners),
		chaos:     cfg.Chaos,
		cacheSeen: make(map[string]bool),
	}
	if cfg.CacheDir != "" {
		s.disk = newDiskCache(cfg.CacheDir, cfg.CacheMaxEntries, cfg.CacheMaxBytes)
	}
	s.setupRing(cfg)
	s.jobs = newLedger[*Job](s.idPrefix, 'j', cfg.JobHistory, nil)
	s.groups = newLedger(s.idPrefix, 'g', cfg.GroupHistory, func(g *JobGroup) int { return len(g.names) })
	s.searches = newLedger[*SearchJob](s.idPrefix, 's', cfg.SearchHistory, nil)
	var recovered []journalEntry
	if cfg.JournalDir != "" {
		// Journal open failure (unwritable directory) degrades to no
		// journaling rather than refusing to serve: availability over
		// durability, matching the disk cache's posture.
		if jl, err := newJournal(cfg.JournalDir); err == nil {
			s.journal = jl
			recovered = jl.load()
			// New IDs must never collide with journaled ones: a recovered
			// entry's file would otherwise be overwritten by the fresh
			// submission's journal write and then deleted by the old
			// entry's cleanup.
			for _, e := range recovered {
				if n, ok := jobSeq(e.ID); ok && n > s.jobs.next {
					s.jobs.next = n
				}
			}
		}
	}
	s.base, s.baseCancel = context.WithCancel(context.Background())
	for i := 0; i < cfg.JobRunners; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.runLoop()
		}()
	}
	s.recoverJobs(recovered)
	return s
}

// recoverJobs resubmits journaled jobs a previous process accepted but never
// settled — the crash-recovery half of the write-ahead journal. Each entry
// re-enters through the ordinary submit path (fresh ID, fresh journal
// entry, cache probe first — a spec whose result landed in the disk cache
// before the crash is born done without recomputation), after which the
// old entry is removed. Unparseable entries are dropped: better to lose
// one job than to wedge startup on a corrupt file.
func (s *Service) recoverJobs(entries []journalEntry) {
	for _, e := range entries {
		spec, err := parseEntrySpec(e)
		if err == nil {
			_, err = s.submit(spec, e.Reps, e.Priority, e.Deadline, nil)
		}
		if err == nil {
			s.met.jobsRecovered.Add(1)
		}
		s.journal.remove(e.ID)
	}
}

// Close shuts the service down gracefully: the queue stops accepting,
// still-queued jobs are cancelled, running jobs are cancelled at their
// next replicate boundary, and Close returns once every runner goroutine
// has exited. Idempotent.
//
// Draining is not the client abandoning work: a job the drain cancels
// keeps its journal entry, so a restart with the same JournalDir picks the
// undrained work back up. A cancel requested before the drain began still
// settles its job's entry.
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.draining.Store(true)
		s.mu.Unlock()
		if s.prober != nil {
			s.prober.Stop()
		}
		for _, j := range s.queue.Close() {
			s.cancelJob(j)
		}
		s.baseCancel()
		s.wg.Wait()
	})
}

// Draining reports whether Close has begun: the service is no longer
// ready for new work (/readyz fails) though in-flight requests still
// complete.
func (s *Service) Draining() bool { return s.draining.Load() }

// Ready reports whether the service should receive traffic: not draining
// and not so far past its latency SLO that new work would be shed anyway.
// This is the /readyz criterion, aimed at load balancers.
func (s *Service) Ready() bool {
	return !s.draining.Load() && !s.adm.overloaded(s.queue.Len())
}

// ErrSweep rejects specs with a sweep block on the single-job endpoint:
// one job is one run. Sweeps are first-class on the group endpoint, which
// expands them server-side and aggregates the variants.
var ErrSweep = errors.New("service: spec has a sweep; submit it to /v1/groups to expand and aggregate it server-side")

// Submit validates and enqueues a scenario for execution with reps
// replicate seeds at the given queue priority, returning the job handle
// immediately. If the result cache already holds this (spec, reps) the job
// is born done — the submit path never recomputes known results.
func (s *Service) Submit(spec *scenario.Spec, reps, priority int) (*Job, error) {
	return s.SubmitWithDeadline(spec, reps, priority, time.Time{})
}

// SubmitWithDeadline is Submit with an absolute completion deadline: the
// run is cut off at the next replicate boundary past it and the job fails
// with a deadline error (unless the result was already available — paid-
// for work is always served). A zero deadline means none; the server-side
// MaxJobRuntime cap applies on top either way.
func (s *Service) SubmitWithDeadline(spec *scenario.Spec, reps, priority int, deadline time.Time) (*Job, error) {
	if err := concrete(spec); err != nil {
		return nil, err
	}
	return s.submit(spec, reps, priority, deadline, nil)
}

// concrete rejects the specs the job and group endpoints do not run: a
// sweep expands into a group, a search block runs on /v1/searches.
func concrete(spec *scenario.Spec) error {
	switch {
	case spec.Sweep != nil:
		return ErrSweep
	case spec.Search != nil:
		return ErrSearch
	}
	return nil
}

// resolveReps applies the server default to reps <= 0 and enforces
// MaxReps — every submit path's replicate-count rule.
func (s *Service) resolveReps(reps int) (int, error) {
	if reps <= 0 {
		return s.cfg.DefaultReps, nil
	}
	if reps > s.cfg.MaxReps {
		return 0, fmt.Errorf("service: reps %d exceeds the limit %d", reps, s.cfg.MaxReps)
	}
	return reps, nil
}

// submit is Submit plus an optional owning group: a non-nil g is attached
// to the job before any lifecycle event beyond the initial queued one can
// fire, so the group observes every transition including a born-done cache
// hit.
func (s *Service) submit(spec *scenario.Spec, reps, priority int, deadline time.Time, g *JobGroup) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	reps, err := s.resolveReps(reps)
	if err != nil {
		return nil, err
	}
	hash, err := spec.Hash()
	if err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%s-r%d", hash, reps)

	// Cache probe before publication (and before s.mu — the disk layer
	// does file I/O): memory first, then the disk layer, which seeds the
	// memory cache so restarted or memory-evicted results are served at
	// submit time instead of queueing behind running jobs.
	art, hit := s.group.Peek(key)
	if !hit {
		if a, ok := s.loadFromDisk(key); ok {
			if s.group.Add(key, a) {
				s.recordCacheKey(key)
			}
			// Re-read: whichever value won the install races.
			art, hit = s.group.Peek(key)
		}
	}

	s.mu.Lock()
	id := s.jobs.mint()
	j := newJob(id, spec, key, hash, reps, priority, deadline, g, &s.met.jobs)
	if g != nil {
		g.attach(j)
	}
	if hit {
		// Cache fast path: the job is born done *before* it is published
		// in the ledger.
		s.met.cacheHits.Add(1)
		j.settle(StateDone, "", art, true)
	}
	s.jobs.publish(id, j)
	s.groups.trim() // a born-done job can settle its group
	s.mu.Unlock()

	if hit {
		return j, nil
	}
	// Write-ahead journal: the entry lands on disk before the caller
	// learns the job ID, so any job a client was told about survives a
	// crash. CanonicalJSON cannot fail here — Hash above already
	// serialized the same spec.
	if canon, err := spec.CanonicalJSON(); err == nil {
		s.journal.append(journalEntry{ID: id, Spec: canon, Reps: reps, Priority: priority, Deadline: deadline})
		// A group or search fan-out can cancel the job between its
		// publication above and the append: that cancel's remove found no
		// file, so settle the entry here.
		if j.clientCancelled() {
			s.journal.remove(id)
		}
	}
	if !s.queue.Push(j) {
		// Shutdown raced the submit; the job is born cancelled rather
		// than orphaned in a queue nobody will drain.
		s.cancelJob(j)
	}
	return j, nil
}

// loadFromDisk probes the disk cache layer for key, treating corruption
// (truncated or non-JSON entries — crash debris, bit rot, fault
// injection) as a miss plus an eviction so the next compute writes a
// clean entry. Chaos disk-error injection also lands here: an injected
// read failure is simply a miss.
func (s *Service) loadFromDisk(key string) (*artifacts, bool) {
	path, ok := s.cacheEntryPath(key)
	if !ok {
		return nil, false
	}
	if s.chaos.DiskErr() {
		return nil, false
	}
	a, ok, corrupt := loadArtifacts(path)
	if corrupt {
		s.disk.forget(key)
		return nil, false
	}
	return a, ok
}

// cancelJob requests cancellation and, when the job leaves the lifecycle
// straight from the queue (no runner will ever see it), settles it. Every
// cancellation path — DELETE, group and search fan-out, shutdown, a submit
// racing Close — funnels through here.
func (s *Service) cancelJob(j *Job) bool {
	ok, queued := j.requestCancel(s.draining.Load())
	if ok && queued {
		// Drop the dead heap entry now: under submit+cancel churn with
		// busy runners it would otherwise pin the job (and its spec)
		// until a runner drained it, defeating the residency bounds.
		s.queue.Remove(j)
		// A client-driven cancel settles the journal entry; a drain
		// cancel does not — the work is still owed and the entry carries
		// it across the restart.
		var owed bool
		s.settle(func() { owed = j.settle(StateCancelled, "", nil, false) })
		if !owed {
			s.journal.remove(j.ID)
		}
	}
	return ok
}

// Job looks a job up by ID.
func (s *Service) Job(id string) (*Job, bool) { return lookup(s, s.jobs, id) }

// Jobs returns status snapshots of every job in submission order.
func (s *Service) Jobs() []Status { return statuses(s, s.jobs, (*Job).Status) }

// Cancel stops the identified job: immediately if queued, at the next
// replicate boundary if running. The second return reports whether the
// job existed; the first whether cancellation was possible (false once
// terminal).
func (s *Service) Cancel(id string) (cancelled, found bool) {
	j, ok := s.Job(id)
	if !ok {
		return false, false
	}
	return s.cancelJob(j), true
}

// SubmitGroup validates and submits every variant spec as a child job of
// one new group named name (the base scenario name; "" defaults to the
// first variant's), at reps replicate seeds and the given queue priority,
// returning the group handle once every variant has been submitted (or the
// expansion was interrupted by a concurrent cancel). Variants must already
// be sweep-free — callers expand sweeps first (scenario.Spec.Expand) — and
// every one is validated before the group is published, so a bad variant
// rejects the whole submission instead of leaving a half-submitted group.
// Cached variants are born done exactly as standalone submissions are, so
// an all-cached group costs zero simulation work.
func (s *Service) SubmitGroup(name string, specs []*scenario.Spec, reps, priority int) (*JobGroup, error) {
	return s.SubmitGroupWithDeadline(name, specs, reps, priority, time.Time{})
}

// SubmitGroupWithDeadline is SubmitGroup with an absolute completion
// deadline inherited by every child job (zero = none); see
// SubmitWithDeadline for the per-job semantics.
func (s *Service) SubmitGroupWithDeadline(name string, specs []*scenario.Spec, reps, priority int, deadline time.Time) (*JobGroup, error) {
	if len(specs) == 0 {
		return nil, errors.New("service: group has no variants")
	}
	if len(specs) > s.cfg.MaxGroupVariants {
		return nil, fmt.Errorf("service: group expands to %d variants, more than the limit %d", len(specs), s.cfg.MaxGroupVariants)
	}
	reps, err := s.resolveReps(reps)
	if err != nil {
		return nil, err
	}
	for _, spec := range specs {
		if err := concrete(spec); err != nil {
			return nil, err
		}
		if err := spec.Validate(); err != nil {
			return nil, err
		}
	}
	g := s.publishGroup(name, specs, reps, priority, deadline)
	s.submitVariants(g, specs)
	return g, nil
}

// publishGroup registers a new group in the ledger before any child is
// submitted, so a concurrent DELETE can find (and interrupt) a group whose
// expansion is still in flight.
func (s *Service) publishGroup(name string, specs []*scenario.Spec, reps, priority int, deadline time.Time) *JobGroup {
	if name == "" {
		name = specs[0].Name
	}
	names := make([]string, len(specs))
	for i, spec := range specs {
		names[i] = spec.Name
	}
	s.mu.Lock()
	id := s.groups.mint()
	g := newJobGroup(id, name, names, reps, priority, &s.met.groups)
	g.deadline = deadline
	s.groups.publish(id, g)
	s.mu.Unlock()
	return g
}

// submitVariants drives the expansion loop: one child submission per
// variant, honoring a concurrent group cancel both between submissions
// (remaining variants are skipped, counted cancelled without ever becoming
// jobs) and just after one (the fresh child is cancelled like any queued
// job). Child submissions cannot fail validation — SubmitGroup validated
// every spec before publishing — so a submit error here (hashing, a close
// race) fails the group as a unit.
func (s *Service) submitVariants(g *JobGroup, specs []*scenario.Spec) {
	for i, spec := range specs {
		if g.cancelPending() {
			s.settle(func() { g.skipRemaining(len(specs)-i, "") })
			return
		}
		j, err := s.submit(spec, g.Reps, g.Priority, g.deadline, g)
		if err != nil {
			s.settle(func() { g.skipRemaining(len(specs)-i, fmt.Sprintf("variant %s: %v", spec.Name, err)) })
			return
		}
		if g.cancelPending() {
			// The cancel raced the submission: the group's job copy may
			// predate this child, so cancel it here; the child's phase
			// settles it exactly once.
			s.cancelJob(j)
		}
	}
}

// Group looks a job group up by ID.
func (s *Service) Group(id string) (*JobGroup, bool) { return lookup(s, s.groups, id) }

// Groups returns status snapshots of every group in submission order.
func (s *Service) Groups() []GroupStatus { return statuses(s, s.groups, (*JobGroup).Status) }

// CancelGroup stops the identified group: cancellation fans out to every
// child job (immediately for queued ones, at the next replicate boundary
// for running ones) and interrupts a still-running expansion. The second
// return reports whether the group existed; the first whether cancellation
// was possible (false once terminal).
func (s *Service) CancelGroup(id string) (cancelled, found bool) {
	g, ok := s.Group(id)
	if !ok {
		return false, false
	}
	return s.cancelGroup(g), true
}

// cancelGroup marks the group cancel-requested and fans the cancel out to
// the children submitted so far; submitVariants picks the flag up for the
// rest.
func (s *Service) cancelGroup(g *JobGroup) bool {
	g.mu.Lock()
	if !g.requestCancel(s.draining.Load()) {
		g.mu.Unlock()
		return false
	}
	jobs := append([]*Job(nil), g.jobs...)
	g.mu.Unlock()
	for _, j := range jobs {
		s.cancelJob(j)
	}
	return true
}

// runLoop is one job-runner goroutine: pop, execute, repeat until the
// queue closes.
func (s *Service) runLoop() {
	for {
		j, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// jobContext builds the job's execution context below the service base:
// cancelled by DELETE and shutdown like before, and additionally bounded
// by the effective deadline — the earlier of the client's absolute
// ?deadline= and now + MaxJobRuntime — when either is set. A deadline
// already in the past still runs the machinery: RunReplicatedCtx observes
// the expired context before the first replicate, so the job fails fast
// with a deadline error instead of being special-cased here.
func (s *Service) jobContext(j *Job) (context.Context, context.CancelFunc) {
	eff := j.Deadline
	if s.cfg.MaxJobRuntime > 0 {
		if bound := time.Now().Add(s.cfg.MaxJobRuntime); eff.IsZero() || bound.Before(eff) {
			eff = bound
		}
	}
	if eff.IsZero() {
		return context.WithCancel(s.base)
	}
	return context.WithDeadline(s.base, eff)
}

// runJob executes one popped job through the singleflight cache.
func (s *Service) runJob(j *Job) {
	ctx, cancel := s.jobContext(j)
	defer cancel()
	if !j.begin(cancel) {
		return // cancelled while queued; cancelJob settles it
	}

	var art *artifacts
	var err error
	computed, diskHit, remoteHit := false, false, false
	for {
		computed, diskHit, remoteHit = false, false, false
		art, err = s.group.Do(j.Key, func() (a *artifacts, err error) {
			// A panicking compute must become an error before it unwinds
			// into Group.Do: an unrecovered panic there would kill the
			// runner goroutine and leave every joined waiter blocked on a
			// done channel nobody will close. Panics below the replicate
			// fan-out are already converted by the pool (runner.PanicError);
			// this recover catches the rest — render bugs, chaos injection.
			defer func() {
				if r := recover(); r != nil {
					if pe, ok := r.(*runner.PanicError); ok {
						err = pe
					} else {
						err = &runner.PanicError{Value: r, Stack: debug.Stack()}
					}
					a = nil
				}
			}()
			computed = true
			if a, ok := s.loadFromDisk(j.Key); ok {
				diskHit = true
				return a, nil
			}
			// Coordinator mode: a spec owned by another live peer executes
			// there — the owner's cache and singleflight make the fleet
			// compute each spec once — and the fetched bytes complete this
			// job verbatim. Any remote trouble falls through to an ordinary
			// local run. Remote results are NOT persisted to the local disk
			// cache: each peer's disk holds only the keys it owns, which is
			// the point of sharding.
			if a, ok := s.tryRemoteExecute(ctx, j); ok {
				remoteHit = true
				return a, nil
			}
			if s.chaos.PanicJob() {
				panic("chaos: injected job panic")
			}
			t0 := time.Now()
			r, runErr := scenario.RunReplicatedCtx(ctx, j.Spec, j.Reps, s.pool, func(done, total int) {
				j.progress(done)
			})
			if runErr != nil {
				return nil, runErr
			}
			a, renderErr := render(r, j.Reps)
			if renderErr != nil {
				return nil, renderErr
			}
			// Only fresh, completed computations feed the admission
			// controller's cost estimate: hits and joins cost nothing and
			// would drag the EWMA toward zero.
			s.adm.observe(time.Since(t0))
			if path, ok := s.cacheEntryPath(j.Key); ok && !s.chaos.DiskErr() {
				// Persistence is best-effort: a failed write degrades the
				// disk layer, never the response. A successful write is
				// registered with the disk bound so the layer cannot grow
				// without limit.
				if size, err := a.save(path); err == nil {
					s.disk.record(j.Key, size)
				}
			}
			return a, nil
		})
		if err != nil && !computed && ctx.Err() == nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			// We joined another job's flight and its owner was cancelled or
			// hit its own deadline; the errored call is forgotten, so run
			// it ourselves — our context is still live.
			continue
		}
		break
	}

	if err == nil && computed {
		// Register the memoized entry with the eviction FIFO regardless of
		// how this job ends (a cancel racing completion still caches the
		// result), or the CacheEntries bound would leak untracked entries.
		s.recordCacheKey(j.Key)
	}
	// The journal entry is removed for every client-visible settlement
	// (done, failed, a DELETE honored below) but retained when the drain
	// alone cancelled the job: that work is still owed and is resubmitted
	// by the next process. A cancel requested before the drain began
	// settles the entry even when the drain's own cut lands first.
	to, msg := StateDone, ""
	var pe *runner.PanicError
	switch {
	case err == nil && ctx.Err() != nil && !errors.Is(ctx.Err(), context.DeadlineExceeded):
		// The cancel request raced result availability (the last replicate
		// was already simulating, or this job had joined another job's
		// flight, which nothing interrupts). The DELETE was acknowledged,
		// so honor it: the result stays cached for future submissions, but
		// this job reports cancelled, not done.
		to = StateCancelled
	case err == nil:
		// Includes a deadline that raced result availability: the work is
		// already paid for, so the result is served rather than discarded.
		// A remote fetch counts as neither a local hit nor a local miss:
		// the owning peer's counters carry the compute, so summing
		// scda_cache_misses_total across the fleet counts each spec once.
		switch {
		case remoteHit:
		case computed && !diskHit:
			s.met.cacheMisses.Add(1)
		default:
			s.met.cacheHits.Add(1)
		}
	case errors.Is(err, context.DeadlineExceeded):
		// The job's own deadline (client ?deadline= or MaxJobRuntime) cut
		// the run off at a replicate boundary.
		to, msg = StateFailed, s.deadlineMsg(j)
	case errors.Is(err, context.Canceled) && ctx.Err() != nil:
		to = StateCancelled
	default:
		if errors.As(err, &pe) {
			s.met.jobPanics.Add(1)
		}
		to, msg = StateFailed, err.Error()
	}
	var owed bool
	s.settle(func() { owed = j.settle(to, msg, art, !computed || diskHit || remoteHit) })
	if !owed {
		s.journal.remove(j.ID)
	}
}

// deadlineMsg renders the failure reason for a deadline-cut job, naming
// which bound fired so clients can tell their own deadline from the
// server cap.
func (s *Service) deadlineMsg(j *Job) string {
	if !j.Deadline.IsZero() && (s.cfg.MaxJobRuntime <= 0 || time.Now().After(j.Deadline)) {
		return fmt.Sprintf("deadline exceeded: job deadline %s passed before the run completed", j.Deadline.UTC().Format(time.RFC3339))
	}
	return fmt.Sprintf("deadline exceeded: job exceeded the server max runtime %s", s.cfg.MaxJobRuntime)
}

// recordCacheKey notes a freshly completed memory-cache entry and evicts
// the oldest entries beyond the CacheEntries bound, so distinct-spec
// traffic (sweep variants, fuzzed seeds) cannot grow the resident set
// without limit. Keys re-enter the FIFO if recomputed after eviction.
func (s *Service) recordCacheKey(key string) {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	if s.cacheSeen[key] {
		return
	}
	s.cacheSeen[key] = true
	s.cacheKeys = append(s.cacheKeys, key)
	for len(s.cacheKeys) > s.cfg.CacheEntries {
		old := s.cacheKeys[0]
		s.cacheKeys = s.cacheKeys[1:]
		delete(s.cacheSeen, old)
		s.group.Forget(old)
	}
}

// cacheEntryPath returns the disk-cache entry file for key, ok=false when
// the disk layer is disabled.
func (s *Service) cacheEntryPath(key string) (string, bool) {
	if s.cfg.CacheDir == "" {
		return "", false
	}
	return filepath.Join(s.cfg.CacheDir, key), true
}

// CacheLen reports the number of completed or in-flight cache entries in
// memory.
func (s *Service) CacheLen() int { return s.group.Len() }
