package scenario

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/export"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// SeriesGroup is one requested reduction of a run: a kind (throughput,
// fct-cdf, afct), axis labels, and the series — one per replicate-mean
// system curve.
type SeriesGroup struct {
	Kind   string
	XLabel string
	YLabel string
	Series []stats.Series
}

// Result is the outcome of running one scenario (possibly aggregated over
// replicate seeds).
type Result struct {
	Spec *Spec
	// Requests is the generated request count (of the base seed for
	// replicated runs).
	Requests int
	// Summary holds the headline metrics; replicated runs add a
	// "<key>_ci95" half-width per key and a "replicates" count.
	Summary map[string]float64
	// Groups carries the requested series reductions in spec order.
	Groups []SeriesGroup

	// reqs backs the optional trace output; nil for aggregated results
	// (replicates have no single trace).
	reqs []workload.Request
}

// Run executes one spec: validate it, generate the workload program from
// the seed, build the cluster, schedule the fault injections, simulate to
// the horizon, and reduce to the requested outputs. Deterministic: the
// same spec produces identical Results on every call.
func Run(s *Spec) (*Result, error) {
	// gate programmatically built specs too, so invariants (fault targets
	// in range, horizon ≥ duration, ...) fail with an error here instead
	// of a panic or silent mis-simulation below
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if eng, _ := s.engineKind(); eng == EngineFluid {
		return runFluid(s)
	}
	cfg, err := s.ClusterConfig()
	if err != nil {
		return nil, err
	}
	prog, err := s.BuildWorkload()
	if err != nil {
		return nil, err
	}
	reqs := prog.Generate(sim.NewRNG(s.Seed), s.Duration)
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	failed := 0
	for _, f := range s.Faults {
		node := c.TT.Servers[f.Server]
		c.Sim.At(f.At, func() {
			if err := c.FailServer(node); err == nil {
				failed++
			}
		})
	}
	m := c.RunWorkload(reqs, s.horizonOrDefault())

	c.Power.AccrueAll(c.Sim.Now())
	sysName := "SCDA"
	if cfg.System == cluster.RandTCP {
		sysName = "RandTCP"
	}
	r := assembleResult(s, m, reqs, sysName)
	r.Summary["energy_kj"] = c.Power.TotalEnergy() / 1e3
	r.Summary["failed_servers"] = float64(failed)
	return r, nil
}

// assembleResult reduces a run's metrics to the Result schema — the shared
// tail of the packet and fluid paths, which is what keeps the two engines'
// output series and summary keys identical by construction. Engine- or
// cluster-specific summary entries (energy, failed servers) are added by
// the caller afterwards.
func assembleResult(s *Spec, m *cluster.Metrics, reqs []workload.Request, sysName string) *Result {
	r := &Result{Spec: s, Requests: len(reqs), reqs: reqs}
	cdf := m.FCTCDF()
	r.Summary = map[string]float64{
		"requests":           float64(len(reqs)),
		"started":            float64(m.Started),
		"completed":          float64(m.Completed),
		"drops":              float64(m.Drops),
		"violations":         float64(m.Violations),
		"lost_blocks":        float64(m.LostBlocks),
		"rereplicated":       float64(m.ReReplicated),
		"unrecovered_blocks": float64(m.UnrecoveredBlocks),
		"migrations":         float64(m.Migrations),
	}
	if cdf.N() > 0 {
		r.Summary["mean_fct_s"] = m.MeanFCT()
		r.Summary["median_fct_s"] = cdf.Quantile(0.5)
		r.Summary["p90_fct_s"] = cdf.Quantile(0.9)
		r.Summary["p99_fct_s"] = cdf.Quantile(0.99)
	}
	for _, kind := range s.outputSeries() {
		g := SeriesGroup{Kind: kind}
		switch kind {
		case OutThroughput:
			g.XLabel, g.YLabel = "Simulation time (sec)", "Avg. Inst. Thpt (KB/sec)"
			g.Series = []stats.Series{{Name: sysName, Points: m.AvgInstThroughput()}}
		case OutFCTCDF:
			g.XLabel, g.YLabel = "FCT (sec)", "FCT CDF"
			n := s.Outputs.CDFPoints
			if n == 0 {
				n = 64
			}
			g.Series = []stats.Series{{Name: sysName, Points: cdf.Points(n)}}
		case OutAFCT:
			g.XLabel, g.YLabel = "File Size (bytes)", "AFCT (sec)"
			bin := s.Outputs.AFCTBinBytes
			if bin == 0 {
				bin = 1 << 20
			}
			g.Series = []stats.Series{{Name: sysName, Points: m.AFCTBySize(bin)}}
		}
		r.Groups = append(r.Groups, g)
	}
	return r
}

// outputSeries resolves the requested series kinds (default: all three).
func (s *Spec) outputSeries() []string {
	if len(s.Outputs.Series) > 0 {
		return s.Outputs.Series
	}
	return []string{OutThroughput, OutFCTCDF, OutAFCT}
}

// RunCtx is Run with cooperative cancellation: the check happens before
// the simulation starts, so a cancelled ctx costs nothing. One spec's
// simulation is a single uninterruptible discrete-event run — cancellation
// granularity for long work is the replicate boundary (see
// RunReplicatedCtx), which keeps the determinism contract trivially intact:
// a run either happens exactly as it always does, or not at all.
func RunCtx(ctx context.Context, s *Spec) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return Run(s)
}

// RunReplicatedCtx runs the spec at reps seeds derived from its own seed,
// fanned out on the pool (nil = default), and aggregates series to mean ±
// 95% CI curves and summaries to means with "_ci95" companions. reps <= 1
// degenerates to a single Run. Once ctx is done no further replicate
// starts (replicates already simulating run to completion) and the call
// returns ctx.Err(). onRep, when non-nil, is invoked after each replicate
// finishes with the number completed so far and the total — concurrently
// when the pool is, so it must be safe to call from multiple goroutines.
// The replicate seed stream is unchanged by either.
func RunReplicatedCtx(ctx context.Context, s *Spec, reps int, p *runner.Pool, onRep func(done, total int)) (*Result, error) {
	if reps <= 1 {
		r, err := RunCtx(ctx, s)
		if err == nil && onRep != nil {
			onRep(1, 1)
		}
		return r, err
	}
	var done atomic.Int64
	runs, err := runner.ReplicateCtx(ctx, p, s.Seed, reps, func(ctx context.Context, rep int, seed uint64) (*Result, error) {
		variant := *s
		variant.Seed = seed
		r, err := RunCtx(ctx, &variant)
		if err == nil && onRep != nil {
			onRep(int(done.Add(1)), reps)
		}
		return r, err
	})
	if err != nil {
		return nil, err
	}
	return aggregate(s, runs), nil
}

// RunAll executes every spec (sweeps must already be expanded) with reps
// replicate seeds each, flattening the (scenario, replicate) grid onto one
// pool so both axes fan out without nested Map calls. Results are in spec
// order.
func RunAll(specs []*Spec, reps int, p *runner.Pool) ([]*Result, error) {
	if reps <= 0 {
		reps = 1
	}
	type cell struct {
		spec int
		seed uint64
	}
	var cells []cell
	for i, s := range specs {
		if s.Sweep != nil {
			return nil, fmt.Errorf("scenario %s: RunAll requires expanded specs (call ExpandAll first)", s.Name)
		}
		// reps == 1 keeps the spec's own seed (byte-identical to a lone
		// Run); replication switches to the derived-seed stream
		seeds := []uint64{s.Seed}
		if reps > 1 {
			seeds = runner.DeriveSeeds(s.Seed, reps)
		}
		for _, seed := range seeds {
			cells = append(cells, cell{spec: i, seed: seed})
		}
	}
	flat, err := runner.Map(p, len(cells), func(i int) (*Result, error) {
		variant := *specs[cells[i].spec]
		variant.Seed = cells[i].seed
		return Run(&variant)
	})
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(specs))
	for i, s := range specs {
		runs := flat[i*reps : (i+1)*reps]
		if reps == 1 {
			out[i] = runs[0]
			continue
		}
		out[i] = aggregate(s, runs)
	}
	return out, nil
}

// aggregate reduces replicate runs of one spec to mean series with 95% CI
// error bars and mean summaries with "_ci95" companions.
func aggregate(s *Spec, runs []*Result) *Result {
	agg := &Result{Spec: s, Requests: runs[0].Requests}
	agg.Summary = map[string]float64{"replicates": float64(len(runs))}
	// union the keys across runs: the FCT quantiles are only present in
	// replicates that completed at least one flow, and must not vanish
	// just because the first seed completed none
	keys := map[string]bool{}
	for _, r := range runs {
		for k := range r.Summary {
			keys[k] = true
		}
	}
	for k := range keys {
		vals := make([]float64, 0, len(runs))
		for _, r := range runs {
			if v, ok := r.Summary[k]; ok {
				vals = append(vals, v)
			}
		}
		mean, ci := stats.MeanCI(vals)
		agg.Summary[k] = mean
		agg.Summary[k+"_ci95"] = ci
		if len(vals) < len(runs) {
			// mean/_ci95 cover a subset; record how many replicates
			// actually contributed so the CI is not mislabeled
			agg.Summary[k+"_n"] = float64(len(vals))
		}
	}
	for g := range runs[0].Groups {
		perRun := make([][]stats.Series, len(runs))
		for i, r := range runs {
			perRun[i] = r.Groups[g].Series
		}
		agg.Groups = append(agg.Groups, SeriesGroup{
			Kind:   runs[0].Groups[g].Kind,
			XLabel: runs[0].Groups[g].XLabel,
			YLabel: runs[0].Groups[g].YLabel,
			Series: stats.AggregateSeries(perRun),
		})
	}
	return agg
}

// PrintSummary writes the summary metrics to w, one "name value" line per
// key in sorted order — the shared rendering for both CLIs.
func (r *Result) PrintSummary(w io.Writer) {
	keys := make([]string, 0, len(r.Summary))
	for k := range r.Summary {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "    %-24s %12.4g\n", k, r.Summary[k])
	}
}

// WriteFiles writes the result under dir (created if needed) and returns
// the paths: <name>-summary.csv (key,value rows, sorted), one long-format
// series CSV per requested reduction, and — for single-seed runs with
// outputs.trace — the replayable workload trace. Output is byte-identical
// across runs of the same spec.
func (r *Result) WriteFiles(dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	sumPath := filepath.Join(dir, r.Spec.Name+"-summary.csv")
	if err := writeSummary(sumPath, r); err != nil {
		return nil, err
	}
	paths = append(paths, sumPath)
	for _, g := range r.Groups {
		p := filepath.Join(dir, r.Spec.Name+"-"+g.Kind+".csv")
		f, err := os.Create(p)
		if err != nil {
			return nil, err
		}
		err = r.WriteSeriesCSV(f, g.Kind)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("scenario: writing %s: %w", p, err)
		}
		paths = append(paths, p)
	}
	if r.HasTrace() {
		p := filepath.Join(dir, r.Spec.Name+"-trace.csv")
		f, err := os.Create(p)
		if err != nil {
			return nil, err
		}
		err = r.WriteTraceCSV(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("scenario: writing %s: %w", p, err)
		}
		paths = append(paths, p)
	}
	return paths, nil
}

// HasTrace reports whether the result carries a replayable workload trace:
// the spec requested outputs.trace and the result is a single-seed run
// (aggregated replicate results have no single trace).
func (r *Result) HasTrace() bool {
	return r.Spec.Outputs.Trace && r.reqs != nil
}

// WriteTraceCSV writes the replayable workload trace to w — the same bytes
// WriteFiles puts in <name>-trace.csv. Callers must check HasTrace first;
// a traceless result errors.
func (r *Result) WriteTraceCSV(w io.Writer) error {
	if !r.HasTrace() {
		return fmt.Errorf("scenario %s: result carries no trace", r.Spec.Name)
	}
	return workload.WriteTrace(w, r.reqs)
}

// WriteSeriesCSV writes the named series reduction (throughput, fct-cdf,
// afct) to w in long format — exactly the bytes WriteFiles puts in
// <name>-<kind>.csv. It is the single series encoder shared by the CLIs
// and the service layer, which is what makes "a served CSV is
// byte-identical to the CLI's file" (including a job group's concatenated
// sweep CSV versus `scda-bench -scenario-dir` output) true by
// construction rather than by test alone. A kind the result does not
// carry errors.
func (r *Result) WriteSeriesCSV(w io.Writer, kind string) error {
	for _, g := range r.Groups {
		if g.Kind == kind {
			return export.WriteSeriesLong(w, g.Series)
		}
	}
	return fmt.Errorf("scenario %s: result carries no %s series", r.Spec.Name, kind)
}

// WriteSummaryCSV writes the summary metrics to w as metric,value rows in
// sorted key order — exactly the bytes WriteFiles puts in
// <name>-summary.csv, so network callers (scda-serve's result endpoint)
// can serve output byte-identical to the CLI's files.
func (r *Result) WriteSummaryCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"metric", "value"}); err != nil {
		return err
	}
	keys := make([]string, 0, len(r.Summary))
	for k := range r.Summary {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := cw.Write([]string{k, strconv.FormatFloat(r.Summary[k], 'g', -1, 64)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// writeSummary emits the result's summary CSV at path.
func writeSummary(path string, r *Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return r.WriteSummaryCSV(f)
}
