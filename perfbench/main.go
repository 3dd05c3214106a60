// Command perfbench is the repository benchmark. It runs one seeded
// workload against the layers' public entry points — scenario.Run offline,
// or service.New(cfg).Handler() behind a loopback listener — for a fixed
// window, checks every output, and prints the end-to-end metrics by name
// with their units, then one JSON result line. With -trace 1 it runs a
// further traced window and prints the per-layer metrics instead.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
//
// The workloads, metrics and the reason for each are listed in
// BENCHMARK.json and perfbench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// setups is how many times a run sets its workload up; setup_s is the
// median, and only the last set-up is kept for the timed windows.
const setups = 3

// maxClients bounds the closed-loop clients of the served workloads; a
// run also caps them at the machine's CPU count.
const maxClients = 2

// An instance is one set-up workload, ready to run operations.
type instance interface {
	// op runs operation i for client c and checks its output. tr is nil
	// outside the traced window. Operation indices grow across windows,
	// so an input generated per index is never repeated.
	op(c, i int, tr *tracer) error
	// window is called just before (start) and just after each timed
	// window, with the window's tracer.
	window(start bool, tr *tracer) error
	// countPass replays the workload's distinct inputs once through the
	// layers' public steps under tr, checks each replay against the
	// untraced reference, and returns their exact work counts. It runs
	// before the traced window, whose replays must repeat the counts.
	countPass(tr *tracer) (counts, error)
	// finish runs the post-window output checks; with a tracer it also
	// adds the workload's per-layer metrics to m.
	finish(tr *tracer, m *metrics) error
	// bodies lists the distinct job specs whose Parse, Validate and Hash
	// the probe times.
	bodies() []*input
	close()
}

// A bench is one workload: its name, load shape and set-up function.
type bench struct {
	name    string
	clients int // closed-loop clients; 1 runs ops serially
	// prepare, when set, fills the reference cache once before the timed
	// set-ups, so setup_s does not include the benchmark's own reference
	// runs.
	prepare func(seed uint64, refs refCache) error
	setup   func(seed uint64, refs refCache) (instance, error)
}

var benches = []bench{
	{"sim-packet", 1, nil, setupPacket},
	{"sim-fluid", 1, nil, setupFluid},
	{"serve-hot", maxClients, prepareHot, setupHot},
	{"serve-cold", maxClients, nil, setupCold},
}

func main() {
	name := flag.String("workload", "", "workload to run: sim-packet, sim-fluid, serve-hot or serve-cold")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Float64("seconds", 10, "length of each timed window in seconds")
	trace := flag.Int("trace", 0, "1 runs a further traced window and reports per-layer metrics")
	out := flag.String("out", ".bench_build/out", "directory for spans and CPU profiles")
	state := flag.String("state", ".bench_build/state", "directory for the exact counts of earlier runs")
	flag.Parse()

	var wl *bench
	for i := range benches {
		if benches[i].name == *name {
			wl = &benches[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	res, err := run(wl, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out, *state)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !res.correct {
		os.Exit(1)
	}
}

// result is what one run reports.
type result struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	metrics   metrics
	notes     []string // human-readable lines printed before the metrics
}

// run sets the workload up several times, runs the untraced window, and in
// trace mode the count pass and the traced window.
func run(wl *bench, seed uint64, d time.Duration, traced bool, outDir, stateDir string) (*result, error) {
	clients := min(wl.clients, runtime.NumCPU())
	res := &result{workload: wl.name, correct: true}
	res.notes = append(res.notes, fmt.Sprintf("perfbench %s seed=%d window=%s trace=%v GOMAXPROCS=%d nproc=%d %s clients=%d served-traffic=loopback-only",
		wl.name, seed, d, traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), clients))

	refs := refCache{}
	if wl.prepare != nil {
		if err := wl.prepare(seed, refs); err != nil {
			return nil, fmt.Errorf("references: %w", err)
		}
	}
	var setupTimes []float64
	var inst instance
	for k := 0; k < setups; k++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		inst, err = wl.setup(seed, refs)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer inst.close()

	base, err := timedWindow(inst, clients, d, nil)
	if err != nil {
		return nil, err
	}
	res.attempted, res.failed = base.attempted, base.failed
	if base.failed > 0 {
		res.correct = false
		res.notes = append(res.notes, fmt.Sprintf("FAILED %d of %d ops; first: %v", base.failed, base.attempted, base.firstErr))
	}
	tail, pct, beyond, err := tailLatency(base.lat)
	if err != nil {
		return nil, err
	}
	p50, opsPerSec := base.roundStats(d)

	if !traced {
		if err := inst.finish(nil, nil); err != nil {
			res.correct = false
			res.notes = append(res.notes, "FAILED post-window check: "+err.Error())
		}
		res.metrics.add("setup_s", median(setupTimes), "s")
		res.metrics.add("op_p50_ms", p50, "ms")
		res.metrics.add("op_tail_ms", tail, "ms")
		res.metrics.add("ops_per_s", opsPerSec, "1/s")
		res.notes = append(res.notes,
			fmt.Sprintf("op_tail_ms is p%d: %d of %d samples lie beyond it", pct, beyond, len(base.lat)),
			fmt.Sprintf("failed_ratio %g ratio (%d failed of %d attempted)", float64(base.failed)/float64(base.attempted), base.failed, base.attempted))
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		res.metrics.add("peak_rss_mb", rss, "MB")
		return res, nil
	}

	tr := newTracer()
	tr.setPhase(phaseCount)
	cnt, err := inst.countPass(tr)
	if err != nil {
		return nil, fmt.Errorf("count pass: %w", err)
	}
	if err := checkCounts(stateDir, wl.name, seed, cnt); err != nil {
		return nil, err
	}
	tr.setPhase(phaseProbe)
	for _, in := range inst.bodies() {
		probeSpec(tr, in)
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", wl.name, seed))
	prof, err := startProfile(stem + "-cpu.pprof")
	if err != nil {
		return nil, err
	}
	tr.setPhase(phaseWindow)
	tw, err := timedWindow(inst, clients, d, tr)
	if perr := prof.stop(); err == nil {
		err = perr
	}
	if err != nil {
		return nil, err
	}
	res.attempted += tw.attempted
	res.failed += tw.failed
	if tw.failed > 0 {
		res.correct = false
		res.notes = append(res.notes, fmt.Sprintf("FAILED %d of %d traced ops; first: %v", tw.failed, tw.attempted, tw.firstErr))
	}
	m := &res.metrics
	cnt.add(m)
	if err := inst.finish(tr, m); err != nil {
		res.correct = false
		res.notes = append(res.notes, "FAILED post-window check: "+err.Error())
	}
	n := float64(base.attempted)
	m.add("alloc_kb_per_op", float64(base.mem.allocBytes)/1024/n, "KB")
	m.add("allocs_per_op", float64(base.mem.allocs)/n, "count")
	m.add("gc.cycles", float64(base.mem.gcCycles), "count")
	shares, err := foldProfile(stem + "-cpu.pprof")
	if err != nil {
		return nil, fmt.Errorf("folding the CPU profile: %w", err)
	}
	for _, pkg := range sharePackages {
		m.add(pkg+".cpu_share", shares[pkg], "ratio")
	}
	m.add("trace.overhead_ratio", tw.opsPerSec()/base.opsPerSec(), "ratio")
	spans := stem + "-spans.jsonl"
	if err := tr.write(spans); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, "spans: "+spans, "cpu profile: "+stem+"-cpu.pprof")
	res.notes = append(res.notes, tr.selfTable(phaseWindow)...)
	return res, nil
}

// window is the outcome of one timed window.
type window struct {
	lat       []float64       // per-op latency in ms
	ends      []time.Duration // per-op completion, since the window began
	attempted int
	failed    int
	firstErr  error
	elapsed   time.Duration
	mem       memStats
}

// opsPerSec is the window's completed ops per second.
func (w window) opsPerSec() float64 {
	return float64(w.attempted-w.failed) / w.elapsed.Seconds()
}

// rounds is how many equal parts of a timed window op_p50_ms and
// ops_per_s are taken over: each is the median of its per-round values,
// so a slow or fast spell of the machine that covers less than half of
// the window does not move it.
const rounds = 5

// roundStats returns the median over the rounds of d of each round's
// median op latency and of its completed ops per second. A round's rate
// is its completions over the time from the previous round's last
// completion to its own last one, which does not round to whole ops.
func (w window) roundStats(d time.Duration) (p50, opsPerSec float64) {
	lat := make([][]float64, rounds)
	last := make([]time.Duration, rounds)
	for k, e := range w.ends {
		r := min(int(e*rounds/d), rounds-1)
		lat[r] = append(lat[r], w.lat[k])
		last[r] = max(last[r], e)
	}
	var p50s, rates []float64
	var prev time.Duration
	for r := range lat {
		if len(lat[r]) == 0 {
			continue
		}
		p50s = append(p50s, median(lat[r]))
		rates = append(rates, float64(len(lat[r]))/(last[r]-prev).Seconds())
		prev = last[r]
	}
	return median(p50s), median(rates)
}

// nextOp hands out operation indices across windows and clients.
var nextOp atomic.Int64

// timedWindow runs closed-loop clients until d has passed: each client
// starts its next op only when the previous one returned.
func timedWindow(inst instance, clients int, d time.Duration, tr *tracer) (window, error) {
	if err := inst.window(true, tr); err != nil {
		return window{}, err
	}
	var (
		mu  sync.Mutex
		w   window
		wg  sync.WaitGroup
		m0  = readMem()
		beg = time.Now()
	)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []float64
			var ends []time.Duration
			var failed int
			var firstErr error
			for time.Since(beg) < d {
				i := int(nextOp.Add(1) - 1)
				t0 := time.Now()
				err := inst.op(c, i, tr)
				now := time.Now()
				lat = append(lat, float64(now.Sub(t0))/1e6)
				ends = append(ends, now.Sub(beg))
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = fmt.Errorf("op %d: %w", i, err)
					}
				}
			}
			mu.Lock()
			w.lat = append(w.lat, lat...)
			w.ends = append(w.ends, ends...)
			w.attempted += len(lat)
			w.failed += failed
			if w.firstErr == nil {
				w.firstErr = firstErr
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	w.elapsed = time.Since(beg)
	w.mem = readMem().since(m0)
	if err := inst.window(false, tr); err != nil {
		return window{}, err
	}
	return w, nil
}

// tailLatency returns the tail latency over the whole window: the highest
// percentile, at most p99, with at least ten samples beyond it
// (nearest-rank), with that percentile and the count beyond it.
func tailLatency(lat []float64) (tail float64, pct, beyond int, err error) {
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	n := len(s)
	for pct = 99; pct >= 50; pct-- {
		rank := int(math.Ceil(float64(pct) / 100 * float64(n)))
		if n-rank >= 10 {
			return s[rank-1], pct, n - rank, nil
		}
	}
	return 0, 0, 0, fmt.Errorf("%d ops are too few for a tail percentile", n)
}

// median returns the median of v (the mean of the middle two for an even
// count); 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

// metrics is an ordered metric list.
type metrics struct{ list []metric }

func (m *metrics) add(name string, v float64, unit string) {
	m.list = append(m.list, metric{name, v, unit})
}

// print writes the notes, one line per metric, and the JSON result line.
func (r *result) print(f *os.File) error {
	for _, n := range r.notes {
		fmt.Fprintln(f, n)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]jm{}
	for _, m := range r.metrics.list {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		if _, dup := out[m.name]; dup {
			return errors.New("duplicate metric " + m.name)
		}
		out[m.name] = jm{m.value, m.unit}
		fmt.Fprintf(f, "%-10s %-32s %16.10g %s\n", r.workload, m.name, m.value, m.unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.correct, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(f, string(line))
	return err
}
