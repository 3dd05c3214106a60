// Command scda-sim runs one datacenter scenario — SCDA or the RandTCP
// baseline — and prints the resulting transfer statistics.
//
// Three modes:
//
//	scda-sim [-system scda|randtcp] [-workload NAME] [-x 500e6] [-k 3]
//	         [-duration 30] [-seed 1] [-replicate] [-nns 3] [-rscale 0]
//	         [-poweraware] [-trace file.csv]
//	    flag mode: one workload from the registry (or a replayed trace
//	    CSV) on the fig. 6 topology.
//
//	scda-sim -scenario file.json [-out results]
//	    scenario mode: run a declarative scenario spec end to end —
//	    topology, phased workload program, system, fault injection —
//	    expanding its sweep (if any) into one run per variant, and write
//	    the requested output CSVs under -out. Output is byte-identical
//	    across runs of the same spec. Specs with "engine": "fluid" run on
//	    the max-min fluid backend (internal/flowsim) instead of the
//	    packet cluster: same output files, orders of magnitude faster,
//	    100k+ concurrent transfers — see scenarios/fluid-100k.json.
//
//	scda-sim -validate PATH...
//	    validate scenario specs (files, or directories of *.json) and
//	    exit non-zero on the first invalid one. CI runs this over
//	    scenarios/.
//
//	scda-sim -hash PATH...
//	    print the stable content hash of each spec (files, or directories
//	    of *.json), expanding sweeps to one line per variant. scda-serve
//	    caches results under this hash suffixed with the replicate count
//	    ("<hash>-r<reps>") — a sweep submitted as a job group caches one
//	    entry per variant — so operators can predict cache hits and
//	    locate cache directories.
//
// Workload names come from the generator registry; see scenarios/README.md
// for the scenario spec reference.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "scda-sim: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	system := flag.String("system", "scda", "scda or randtcp")
	wl := flag.String("workload", "dc", "workload generator: "+workload.Help())
	x := flag.Float64("x", 500e6, "base bandwidth X in bits/sec")
	k := flag.Float64("k", 3, "bandwidth factor K")
	duration := flag.Float64("duration", 30, "arrival horizon in seconds")
	seed := flag.Uint64("seed", 1, "random seed")
	replicate := flag.Bool("replicate", false, "internal replication after writes (section VIII-B)")
	nns := flag.Int("nns", 3, "number of name node servers")
	rscale := flag.Float64("rscale", 0, "passive-content scale-down threshold in bits/sec (0 = off)")
	powerAware := flag.Bool("poweraware", false, "power-aware server selection (section VII-D)")
	trace := flag.String("trace", "", "replay a workload trace CSV instead of generating")
	scenarioFile := flag.String("scenario", "", "run a declarative scenario spec (JSON)")
	validate := flag.Bool("validate", false, "validate scenario specs (args: files or directories) and exit")
	hash := flag.Bool("hash", false, "print the stable content hash of scenario specs (args: files or directories) and exit")
	out := flag.String("out", "results", "output directory for scenario CSVs")
	flag.Parse()

	if *validate {
		runValidate(flag.Args(), *scenarioFile)
		return
	}
	if *hash {
		runHash(flag.Args(), *scenarioFile)
		return
	}
	if *scenarioFile != "" {
		runScenario(*scenarioFile, *out)
		return
	}

	// a NaN duration never ends generation (no arrival time compares >=
	// NaN), and an infinite one never ends the run
	if !(*duration > 0) || math.IsInf(*duration, 1) {
		fmt.Fprintf(os.Stderr, "scda-sim: -duration %v must be finite and positive\n", *duration)
		os.Exit(2)
	}

	var sys cluster.System
	switch *system {
	case "scda":
		sys = cluster.SCDA
	case "randtcp":
		sys = cluster.RandTCP
	default:
		fmt.Fprintf(os.Stderr, "scda-sim: unknown system %q\n", *system)
		os.Exit(2)
	}

	cfg := cluster.DefaultConfig(sys)
	cfg.Topology.X = *x
	cfg.Topology.K = *k
	cfg.Seed = *seed
	cfg.Replicate = *replicate
	cfg.NumNNS = *nns
	cfg.Rscale = *rscale
	cfg.PowerAware = *powerAware
	cfg.HeterogeneousPower = *powerAware

	var reqs []workload.Request
	if *trace != "" {
		f, err := os.Open(*trace)
		if err != nil {
			fail("%v", err)
		}
		reqs, err = workload.ReadTrace(f)
		f.Close()
		if err != nil {
			fail("%v", err)
		}
	} else {
		gen, err := workload.New(*wl)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scda-sim: %v\n", err)
			os.Exit(2)
		}
		reqs = gen.Generate(sim.NewRNG(*seed), *duration)
	}

	c, err := cluster.New(cfg)
	if err != nil {
		fail("%v", err)
	}
	st := workload.Summarize(reqs)
	fmt.Printf("system=%v workload=%s requests=%d totalMB=%.1f X=%.0fMb/s K=%.0f\n",
		sys, *wl, st.Count, float64(st.TotalBytes)/1e6, *x/1e6, *k)

	m := c.RunWorkload(reqs, *duration*3)
	cdf := m.FCTCDF()
	fmt.Printf("started=%d completed=%d drops=%d violations=%d\n",
		m.Started, m.Completed, m.Drops, m.Violations)
	if cdf.N() > 0 {
		fmt.Printf("FCT: mean=%.3fs median=%.3fs p90=%.3fs p99=%.3fs max=%.3fs\n",
			m.MeanFCT(), cdf.Quantile(0.5), cdf.Quantile(0.9), cdf.Quantile(0.99), cdf.Quantile(1))
	}
	c.Power.AccrueAll(c.Sim.Now())
	fmt.Printf("energy=%.1f kJ over %.1f simulated seconds\n",
		c.Power.TotalEnergy()/1e3, c.Sim.Now())
}

// runScenario executes one spec file (all sweep variants) and writes its
// outputs.
func runScenario(path, out string) {
	spec, err := scenario.Load(path)
	if err != nil {
		fail("%v", err)
	}
	variants, err := spec.Expand()
	if err != nil {
		fail("%v", err)
	}
	for _, s := range variants {
		r, err := scenario.Run(s)
		if err != nil {
			fail("%v", err)
		}
		printResult(r)
		paths, err := r.WriteFiles(out)
		if err != nil {
			fail("writing outputs: %v", err)
		}
		for _, p := range paths {
			fmt.Printf("    -> %s\n", p)
		}
		fmt.Println()
	}
}

// printResult prints one scenario summary header plus the shared metric
// rendering.
func printResult(r *scenario.Result) {
	fmt.Printf("scenario %s (seed=%d duration=%.0fs requests=%d)\n",
		r.Spec.Name, r.Spec.Seed, r.Spec.Duration, r.Requests)
	r.PrintSummary(os.Stdout)
}

// runValidate checks every spec in the given files/directories, printing
// one line per spec, and exits 1 if any is invalid.
func runValidate(args []string, scenarioFile string) {
	if scenarioFile != "" {
		args = append([]string{scenarioFile}, args...)
	}
	if len(args) == 0 {
		fail("-validate needs spec files or directories (e.g. scda-sim -validate scenarios)")
	}
	bad := 0
	check := func(path string) {
		s, err := scenario.Load(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scda-sim: INVALID %v\n", err)
			bad++
			return
		}
		n := ""
		if s.Sweep != nil {
			vs, _ := s.Expand()
			n = fmt.Sprintf(" (%d sweep variants)", len(vs))
		}
		fmt.Printf("ok %-24s %s%s\n", s.Name, path, n)
	}
	forEachSpecPath(args, check)
	if bad > 0 {
		fail("%d invalid spec(s)", bad)
	}
}

// runHash prints "<hash>  <name>  <path>" for every spec in the given
// files/directories. scda-serve's cache key (and disk-cache directory
// name) is this hash plus a "-r<reps>" replicate-count suffix. A spec
// with a sweep prints one line per expanded variant — the variants are
// what scda-serve actually caches when the spec is submitted as a job
// group, so the printed hashes match the group's child cache keys.
func runHash(args []string, scenarioFile string) {
	if scenarioFile != "" {
		args = append([]string{scenarioFile}, args...)
	}
	if len(args) == 0 {
		fail("-hash needs spec files or directories (e.g. scda-sim -hash scenarios)")
	}
	bad := 0
	forEachSpecPath(args, func(path string) {
		s, err := scenario.Load(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scda-sim: INVALID %v\n", err)
			bad++
			return
		}
		variants, err := s.Expand()
		if err != nil {
			fmt.Fprintf(os.Stderr, "scda-sim: %v\n", err)
			bad++
			return
		}
		for _, v := range variants {
			h, err := v.Hash()
			if err != nil {
				fmt.Fprintf(os.Stderr, "scda-sim: %v\n", err)
				bad++
				return
			}
			fmt.Printf("%s  %-24s %s\n", h, v.Name, path)
		}
	})
	if bad > 0 {
		fail("%d unhashable spec(s)", bad)
	}
}

// forEachSpecPath calls fn for every named spec file, expanding directory
// arguments to their *.json files in sorted order (same listing as
// scenario.LoadDir, but per-file so one bad spec doesn't hide the rest).
func forEachSpecPath(args []string, fn func(path string)) {
	for _, arg := range args {
		info, err := os.Stat(arg)
		if err != nil {
			fail("%v", err)
		}
		if !info.IsDir() {
			fn(arg)
			continue
		}
		matches, err := filepath.Glob(filepath.Join(arg, "*.json"))
		if err != nil {
			fail("%v", err)
		}
		if len(matches) == 0 {
			fail("no *.json specs in %s", arg)
		}
		sort.Strings(matches)
		for _, m := range matches {
			fn(m)
		}
	}
}
