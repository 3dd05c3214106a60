// Command scda-bench regenerates the data behind every figure of the
// SCDA paper's evaluation (figs. 7-18) and runs the design-claim
// ablations, printing a summary table and writing per-figure CSV series.
//
// Usage:
//
//	scda-bench [-scale quick|paper] [-figures fig07,fig13] [-ablations]
//	           [-out results] [-seed 1] [-duration 30]
//	           [-workers 0] [-reps 1]
//	           [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	scda-bench -scenario-dir scenarios [-reps 5] [-workers 0] [-out results]
//	scda-bench -search scenarios/power-save-search.json [-reps 1] [-workers 0] [-out results]
//
// With -scenario-dir the bench runs every declarative scenario spec
// (*.json) in the directory instead of the paper figures: sweeps expand to
// one variant each, the (scenario, replicate) grid fans out across the
// worker pool, and with -reps > 1 each scenario's series carry mean ± 95%
// CI error bars. Results are seed-deterministic at any worker count.
// Specs selecting "engine": "fluid" run on the max-min fluid backend and
// mix freely with packet specs in one directory — same CSV schema either
// way.
//
// With -search the bench runs one adaptive search offline: the named
// spec's "search" block (see scenarios/README.md) compiles to an
// optimization problem and the internal/search engine evaluates variants
// on the local worker pool — no service required. The round-by-round
// trajectory prints as it happens, and the deterministic result document
// and trajectory CSV land under -out, byte-identical to what scda-serve's
// /v1/searches/{id}/result endpoints serve for the same spec.
//
// At -scale paper the suite reproduces the published parameters
// (X=500/200 Mb/s, 100 s horizons) and takes correspondingly longer;
// quick scale divides bandwidth and arrival rates by 10 so shapes and
// win factors are preserved at a fraction of the cost.
//
// Independent runs (figures, sweep points, ablations, replicate seeds)
// fan out across -workers goroutines (0 = GOMAXPROCS, 1 = serial);
// results are seed-deterministic and identical at any worker count.
// With -reps > 1 each figure is replicated at seeds derived from -seed
// and the CSV series carry mean ± 95% CI error bars in a yerr column.
//
// -cpuprofile and -memprofile write pprof profiles covering the whole
// run (use -workers 1 for a profile free of pool scheduling noise), so
// hot-path work is measurable without editing code:
//
//	scda-bench -scale quick -workers 1 -cpuprofile cpu.pprof
//	go tool pprof -top cpu.pprof
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/search"
)

// memProfilePath is set from -memprofile so flushProfiles can write the
// heap profile on both the normal and the fail exit path.
var memProfilePath string

// flushProfiles finalizes any requested profiles. os.Exit skips defers, so
// fail() calls this explicitly; a failed run still leaves a parseable
// (partial) CPU profile and a heap profile. No-op when profiling is off.
func flushProfiles() {
	pprof.StopCPUProfile()
	if memProfilePath == "" {
		return
	}
	path := memProfilePath
	memProfilePath = "" // write at most once
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scda-bench: creating mem profile: %v\n", err)
		return
	}
	runtime.GC() // up-to-date live-heap statistics
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "scda-bench: writing mem profile: %v\n", err)
	}
	f.Close()
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "scda-bench: "+format+"\n", args...)
	flushProfiles()
	os.Exit(1)
}

// runScenarios is the -scenario-dir mode: load and expand every spec in
// dir, flatten the (scenario, replicate) grid onto the pool, and write
// each scenario's summary and series CSVs under out.
func runScenarios(dir, out string, reps int, pool *runner.Pool) {
	specs, err := scenario.LoadDir(dir)
	if err != nil {
		fail("%v", err)
	}
	specs, err = scenario.ExpandAll(specs)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("SCDA scenario bench — %d scenarios from %s, workers=%d reps=%d\n\n",
		len(specs), dir, pool.Workers(), reps)
	start := time.Now()
	results, err := scenario.RunAll(specs, reps, pool)
	if err != nil {
		fail("%v", err)
	}
	elapsed := time.Since(start)
	for _, r := range results {
		fmt.Printf("%s  (%d requests)\n", r.Spec.Name, r.Requests)
		r.PrintSummary(os.Stdout)
		paths, err := r.WriteFiles(out)
		if err != nil {
			fail("writing %s: %v", r.Spec.Name, err)
		}
		for _, p := range paths {
			fmt.Printf("    -> %s\n", p)
		}
		fmt.Println()
	}
	fmt.Printf("%d scenarios completed in %.2fs wall-clock on %d workers\n",
		len(results), elapsed.Seconds(), pool.Workers())
}

// runSearch is the -search mode: compile the spec's search block and run
// the adaptive engine offline on the local pool, printing rounds as they
// complete and writing the deterministic result document and trajectory
// CSV under out.
func runSearch(path, out string, reps int, pool *runner.Pool) {
	spec, err := scenario.Load(path)
	if err != nil {
		fail("%v", err)
	}
	p, err := search.Compile(spec, reps, 0)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("SCDA adaptive search — %s: %s %s of %s over %s, workers=%d reps=%d\n\n",
		spec.Name, p.Strategy, p.Objective, p.Metric, p.Parameter, pool.Workers(), p.BaseReps)
	start := time.Now()
	res, err := search.Run(context.Background(), p, &search.Local{Pool: pool}, func(r search.Round) {
		line := fmt.Sprintf("round %d  reps=%d evaluated=%d pruned=%d", r.Round, r.Reps, r.Evaluations, r.Pruned)
		if r.Incumbent != nil {
			line += fmt.Sprintf("  incumbent %s=%v %s=%v", p.Parameter, r.Incumbent.Value, p.Metric, r.Incumbent.Objective)
		}
		fmt.Println(line)
	})
	if err != nil {
		fail("%v", err)
	}
	elapsed := time.Since(start)
	if err := os.MkdirAll(out, 0o755); err != nil {
		fail("%v", err)
	}
	doc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fail("%v", err)
	}
	jsonPath := filepath.Join(out, spec.Name+"-search.json")
	csvPath := filepath.Join(out, spec.Name+"-trajectory.csv")
	if err := os.WriteFile(jsonPath, append(doc, '\n'), 0o644); err != nil {
		fail("%v", err)
	}
	if err := os.WriteFile(csvPath, res.TrajectoryCSV(), 0o644); err != nil {
		fail("%v", err)
	}
	fmt.Printf("\nsearch completed in %.2fs wall-clock: %d rounds, %d evaluations, converged=%v\n",
		elapsed.Seconds(), len(res.Rounds), res.Evaluations, res.Converged)
	if res.Incumbent != nil {
		fmt.Printf("incumbent %s = %v  (%s %s = %v)\n", p.Parameter, res.Incumbent.Value, p.Objective, p.Metric, res.Incumbent.Objective)
	} else {
		fmt.Println("no feasible incumbent: every evaluated variant violated a constraint")
	}
	fmt.Printf("    -> %s\n    -> %s\n", jsonPath, csvPath)
}

func main() {
	scale := flag.String("scale", "quick", "quick or paper")
	figures := flag.String("figures", "all", "comma-separated figure IDs (fig07..fig18) or all")
	ablations := flag.Bool("ablations", false, "also run the A1-A11 design-claim ablations")
	sweeps := flag.Bool("sweeps", false, "also run the client-scale and NNS-scale sweeps")
	out := flag.String("out", "results", "output directory for CSV series")
	seed := flag.Uint64("seed", 1, "experiment seed")
	duration := flag.Float64("duration", 0, "override simulated horizon in seconds")
	workers := flag.Int("workers", 0, "parallel experiment workers (0 = GOMAXPROCS, 1 = serial)")
	reps := flag.Int("reps", 1, "replicate seeds per figure; >1 adds 95% CI error bars")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	scenarioDir := flag.String("scenario-dir", "", "run every scenario spec in this directory instead of the paper figures")
	searchSpec := flag.String("search", "", "run this spec's adaptive search offline instead of the paper figures")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail("creating cpu profile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail("starting cpu profile: %v", err)
		}
	}
	memProfilePath = *memprofile
	defer flushProfiles()

	if *scenarioDir != "" || *searchSpec != "" {
		if *scenarioDir != "" && *searchSpec != "" {
			fail("-scenario-dir and -search are mutually exclusive")
		}
		mode := "-scenario-dir"
		if *searchSpec != "" {
			mode = "-search"
		}
		// scenario specs carry their own seed/duration/scale; rejecting
		// the figure-mode flags beats silently ignoring them
		inert := map[string]bool{"scale": true, "figures": true, "ablations": true,
			"sweeps": true, "seed": true, "duration": true}
		flag.Visit(func(f *flag.Flag) {
			if inert[f.Name] {
				fail("-%s has no effect with %s: edit the spec files instead", f.Name, mode)
			}
		})
		if *searchSpec != "" {
			runSearch(*searchSpec, *out, *reps, runner.New(*workers))
		} else {
			runScenarios(*scenarioDir, *out, *reps, runner.New(*workers))
		}
		return
	}

	var sc experiments.Scale
	switch *scale {
	case "quick":
		sc = experiments.QuickScale()
	case "paper":
		sc = experiments.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "scda-bench: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	sc.Seed = *seed
	if *duration > 0 {
		sc.Duration = *duration
	}

	pool := runner.New(*workers)

	var ids []string // nil runs every figure
	if *figures != "all" {
		ids = strings.Split(*figures, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
	}

	fmt.Printf("SCDA reproduction bench — scale=%s duration=%.0fs bw×%.2f arrivals×%.2f seed=%d workers=%d reps=%d\n\n",
		*scale, sc.Duration, sc.BWScale, sc.ArrivalScale, sc.Seed, pool.Workers(), *reps)

	start := time.Now()
	results, err := experiments.RunFigures(ids, sc, *reps, pool)
	if err != nil {
		fail("%v", err)
	}
	elapsed := time.Since(start)

	for _, f := range results {
		path, err := export.SaveSeries(*out, f.ID, f.Series)
		if err != nil {
			fail("saving %s: %v", f.ID, err)
		}
		fmt.Printf("%s  %s\n", f.ID, f.Title)
		keys := make([]string, 0, len(f.Summary))
		for k := range f.Summary {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("    %-24s %12.4g\n", k, f.Summary[k])
		}
		fmt.Printf("    series -> %s\n\n", path)
	}
	fmt.Printf("figures completed in %.2fs wall-clock on %d workers\n\n",
		elapsed.Seconds(), pool.Workers())

	if *sweeps {
		fmt.Println("sweeps:")
		cs, err := experiments.ClientScaleSweep(nil, sc, pool)
		if err != nil {
			fail("client sweep: %v", err)
		}
		if path, err := export.SaveSeries(*out, cs.ID, cs.Series); err == nil {
			fmt.Printf("  %s -> %s\n", cs.Title, path)
		}
		ns, err := experiments.NNSScaleSweep(nil, sc, pool)
		if err != nil {
			fail("nns sweep: %v", err)
		}
		if path, err := export.SaveSeries(*out, ns.ID, ns.Series); err == nil {
			fmt.Printf("  %s -> %s\n", ns.Title, path)
		}
		fmt.Println()
	}

	if *ablations {
		fmt.Println("ablations (design-claim validations):")
		rs, err := experiments.RunAblations(sc, pool)
		if err != nil {
			fail("ablations: %v", err)
		}
		for _, r := range rs {
			status := "PASS"
			if !r.Passed {
				status = "FAIL"
			}
			fmt.Printf("  %s [%s] %s\n", r.ID, status, r.Title)
			keys := make([]string, 0, len(r.Values))
			for k := range r.Values {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Printf("      %-24s %12.4g\n", k, r.Values[k])
			}
		}
	}
}
