package service

import (
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/ring"
)

// metrics is the service's dependency-free instrumentation: a handful of
// atomic counters and gauges rendered in the Prometheus text exposition
// format by writeTo. No client library — a family is a HELP line, a TYPE
// line and its samples, and keeping the module stdlib-only is a design
// constraint.
type metrics struct {
	// The lifecycle gauges and terminal counters of each kind, moved only
	// by the entries' phases (see lifecycle.go).
	jobs, groups, searches tally

	cacheHits   atomic.Int64 // counter: results served without recomputation
	cacheMisses atomic.Int64 // counter: results computed fresh

	shedTotal     atomic.Int64 // counter: submissions rejected 429 by admission control
	jobsRecovered atomic.Int64 // counter: journaled jobs resubmitted at startup
	jobPanics     atomic.Int64 // counter: job computes that panicked (recovered to failed)

	// Search families, rendered only once a search has been submitted so
	// the established exposition stays byte-stable on services that never
	// run one.
	searchRounds atomic.Int64 // counter: completed search rounds
	searchPruned atomic.Int64 // counter: variants pruned from contention

	// Coordinator-mode families, rendered only when the service has a
	// ring so the single-node exposition stays byte-stable.
	ringForwards  atomic.Int64 // counter: submissions forwarded to their owning peer
	ringProxied   atomic.Int64 // counter: ID-routed requests proxied to their home peer
	ringRemote    atomic.Int64 // counter: local jobs executed on their owning peer
	ringFallbacks atomic.Int64 // counter: remote work degraded to local execution
	ringLoops     atomic.Int64 // counter: forwarded requests refused 502 by the loop guard
}

// writeTo renders the exposition text. The non-counter arguments are
// point-in-time gauges owned by the Service (pool width, runner count,
// cache sizes, peer health) rather than the metrics struct; a nil peers
// slice means single-node, which renders no ring families at all so the
// established exposition is byte-for-byte unchanged.
func (m *metrics) writeTo(w io.Writer, poolWorkers, jobRunners, cacheEntries, diskEntries int, diskBytes int64, peers []ring.PeerHealth) {
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	settled := func(name, help string, t *tally) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, s := range []State{StateDone, StateFailed, StateCancelled} {
			fmt.Fprintf(w, "%s{state=%q} %d\n", name, s, t.of(s).Load())
		}
	}
	gauge("scda_jobs_queued", "Jobs waiting in the priority queue.", m.jobs.queued.Load())
	gauge("scda_jobs_running", "Jobs currently executing.", m.jobs.running.Load())
	settled("scda_jobs_done_total", "Jobs that reached a terminal state, by state.", &m.jobs)

	gauge("scda_groups_active", "Job groups not yet in a terminal state.", m.groups.active())
	settled("scda_groups_done_total", "Job groups that reached a terminal state, by state.", &m.groups)

	counter("scda_shed_total", "Submissions rejected with 429 by admission control.", m.shedTotal.Load())
	counter("scda_jobs_recovered_total", "Journaled jobs resubmitted after a restart.", m.jobsRecovered.Load())
	counter("scda_job_panics_total", "Job computations that panicked and were recovered to state failed.", m.jobPanics.Load())

	counter("scda_cache_hits_total", "Results served from the cache (memory, disk, or an in-flight duplicate).", m.cacheHits.Load())
	counter("scda_cache_misses_total", "Results computed fresh.", m.cacheMisses.Load())
	gauge("scda_cache_entries", "Completed or in-flight entries in the in-memory result cache.", int64(cacheEntries))
	gauge("scda_disk_cache_entries", "Entries in the bounded disk cache layer (0 when disabled).", int64(diskEntries))
	gauge("scda_disk_cache_bytes", "Total bytes in the bounded disk cache layer (0 when disabled).", diskBytes)

	// A runner holds one job from its start to its settlement, so busy
	// runners == jobs in the running state; the family is exported under
	// the operator-facing name without duplicating state.
	gauge("scda_job_runners", "Job runner goroutines (the job-level concurrency bound).", int64(jobRunners))
	gauge("scda_job_runners_busy", "Job runners currently executing a job; busy/total is worker utilization.", m.jobs.running.Load())
	gauge("scda_pool_workers", "Replicate fan-out pool width shared by all jobs.", int64(poolWorkers))

	if m.searches.seen() > 0 {
		gauge("scda_searches_active", "Adaptive searches not yet in a terminal state.", m.searches.active())
		settled("scda_searches_done_total", "Adaptive searches that reached a terminal state, by state.", &m.searches)
		counter("scda_search_rounds_total", "Completed adaptive-search rounds.", m.searchRounds.Load())
		counter("scda_search_variants_pruned_total", "Search variants pruned from contention.", m.searchPruned.Load())
	}

	if peers == nil {
		return
	}
	gauge("scda_ring_peers", "Peers in the placement ring, this node included.", int64(len(peers)))
	fmt.Fprintf(w, "# HELP scda_ring_peer_up Peer health from the /readyz prober: 1 up, 0 down.\n")
	fmt.Fprintf(w, "# TYPE scda_ring_peer_up gauge\n")
	for _, p := range peers {
		up := 0
		if p.Up {
			up = 1
		}
		fmt.Fprintf(w, "scda_ring_peer_up{peer=%q} %d\n", p.Peer, up)
	}
	fmt.Fprintf(w, "# HELP scda_ring_forwards_total Requests sent to another peer, by kind: submit (edge forward), proxy (ID-routed), execute (remote job execution).\n")
	fmt.Fprintf(w, "# TYPE scda_ring_forwards_total counter\n")
	fmt.Fprintf(w, "scda_ring_forwards_total{kind=\"submit\"} %d\n", m.ringForwards.Load())
	fmt.Fprintf(w, "scda_ring_forwards_total{kind=\"proxy\"} %d\n", m.ringProxied.Load())
	fmt.Fprintf(w, "scda_ring_forwards_total{kind=\"execute\"} %d\n", m.ringRemote.Load())
	counter("scda_ring_local_fallbacks_total", "Remote-owned work executed locally because the owner was down or unreachable.", m.ringFallbacks.Load())
	counter("scda_ring_loop_rejects_total", "Forwarded requests refused with 502 by the single-hop loop guard.", m.ringLoops.Load())
}
