// Package experiments regenerates the paper's evaluation (section X):
// figs. 7-18 plus the A1-A11 design-claim ablations and two sweeps (see
// EXPERIMENTS.md for the full figure and ablation tables). The twelve
// figures are rows of one table over five runs. Each run builds both
// systems (SCDA and RandTCP) on the fig. 6 topology and drives them with
// the same generated workload; each row reduces one run's metrics to the
// series the paper plots. The suite-level entry points (RunFigures,
// RunAblations and the sweeps) fan independent simulations out across an
// internal/runner pool; same-seed results are identical to serial runs.
//
// Absolute numbers differ from the paper's NS2 testbed; the reproduction
// targets are the curve shapes and the win factors (SCDA ~50% lower
// FCT/AFCT, up to ~50-60% higher average instantaneous throughput, wild
// RandTCP AFCT fluctuations vs smooth SCDA).
package experiments

import (
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Scale shrinks the paper's scenario so the full suite runs in CI time;
// PaperScale reproduces the published parameters.
type Scale struct {
	// Duration is the simulated horizon in seconds (the paper runs 100 s).
	Duration float64
	// BWScale multiplies the base bandwidth X (1 = paper).
	BWScale float64
	// ArrivalScale multiplies workload arrival rates (1 = paper).
	ArrivalScale float64
	// Seed drives all randomness.
	Seed uint64
}

// QuickScale completes each figure in a few seconds of wall time while
// preserving load ratios (bandwidth and arrivals scaled together).
func QuickScale() Scale {
	return Scale{Duration: 30, BWScale: 0.1, ArrivalScale: 0.1, Seed: 1}
}

// PaperScale matches section X parameters.
func PaperScale() Scale {
	return Scale{Duration: 100, BWScale: 1, ArrivalScale: 1, Seed: 1}
}

// FigureResult is the regenerated data for one paper figure.
type FigureResult struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []stats.Series
	// Summary holds headline comparisons (mean FCT per system, ratios).
	Summary map[string]float64
}

// baseConfig builds the fig. 6 cluster config for a system with the
// paper's X and K, scaled.
func baseConfig(sys cluster.System, x float64, k float64, sc Scale) cluster.Config {
	cfg := cluster.DefaultConfig(sys)
	cfg.Topology.X = x * sc.BWScale
	cfg.Topology.K = k
	cfg.Seed = sc.Seed
	return cfg
}

// paperRun names one of the five two-system simulations behind figs.
// 7-18: each runs SCDA and RandTCP on the fig. 6 tree, fed the same
// requests.
type paperRun int

const (
	runVideo      paperRun = iota // X-A1 video traces with control flows, X=500 Mb/s, K=3
	runVideoNoCtl                 // X-A1 without the control flows
	runDCK1                       // X-A2 datacenter traces, X=500 Mb/s, K=1
	runDCK3                       // X-A2 at K=3
	runPareto                     // X-B Pareto sizes, Poisson arrivals, X=200 Mb/s, K=3
)

// simulate runs one system of the run: arrivals for sc.Duration, then a
// drain to three times that so in-flight transfers can finish.
func (r paperRun) simulate(sys cluster.System, sc Scale) (*cluster.Metrics, error) {
	x, k := 500e6, 3.0
	var gen workload.Generator
	switch r {
	case runVideo, runVideoNoCtl:
		spec := workload.DefaultVideoSpec()
		spec.ControlFlows = r == runVideo
		spec.ArrivalRate *= sc.ArrivalScale
		gen = spec
	case runDCK1:
		k = 1
		gen = dcSpec(sc)
	case runDCK3:
		gen = dcSpec(sc)
	case runPareto:
		x = 200e6
		spec := workload.DefaultParetoSpec()
		spec.ArrivalRate *= sc.ArrivalScale
		gen = spec
	}
	c, err := cluster.New(baseConfig(sys, x, k, sc))
	if err != nil {
		return nil, fmt.Errorf("experiments: building %v: %w", sys, err)
	}
	// a copy of the metrics lets the rest of the cluster go
	m := *c.RunWorkload(gen.Generate(sim.NewRNG(sc.Seed), sc.Duration), sc.Duration*3)
	return &m, nil
}

func dcSpec(sc Scale) workload.DCSpec {
	spec := workload.DefaultDCSpec()
	spec.ArrivalRate *= sc.ArrivalScale
	return spec
}

// figure is one row of the figures table: a reduction of one run's two
// systems to the series the paper plots.
type figure struct {
	id, title string
	run       paperRun
	reduce    func(scda, rand *cluster.Metrics) FigureResult
}

// figures lists figs. 7-18 in paper order: twelve reductions of five runs.
var figures = []figure{
	{"fig07", "Video traces with control flows: throughput", runVideo, throughput},
	{"fig08", "Video traces with control flows: upload time CDF", runVideo, fctCDF},
	{"fig09", "Video traces with control flows: AFCT", runVideo, afct(1<<20, 1<<20, "File Size (MB)")},
	{"fig10", "Video traces without control flows: throughput", runVideoNoCtl, throughput},
	{"fig11", "Video traces without control flows: upload time CDF", runVideoNoCtl, fctCDF},
	{"fig12", "Video traces without control flows: AFCT", runVideoNoCtl, afct(1<<20, 1<<20, "File Size (MB)")},
	{"fig13", "Datacenter traces K=1: AFCT", runDCK1, afct(500e3, 1e3, "File Size (KBytes)")},
	{"fig14", "Datacenter traces K=1: upload time CDF", runDCK1, fctCDF},
	{"fig15", "Datacenter traces K=3: AFCT", runDCK3, afct(500e3, 1e3, "File Size (KBytes)")},
	{"fig16", "Datacenter traces K=3: upload time CDF", runDCK3, fctCDF},
	{"fig17", "Pareto/Poisson: throughput", runPareto, throughput},
	{"fig18", "Pareto/Poisson: upload time CDF", runPareto, fctCDF},
}

// throughput reduces both systems to the fig. 7/10/17 series.
func throughput(scda, rand *cluster.Metrics) FigureResult {
	s, r := scda.AvgInstThroughput(), rand.AvgInstThroughput()
	return FigureResult{
		XLabel: "Simulation time (sec)", YLabel: "Avg. Inst. Thpt (KB/sec)",
		Series: []stats.Series{{Name: "SCDA", Points: s}, {Name: "RandTCP", Points: r}},
		Summary: map[string]float64{
			"scda_mean_thpt_kBps": meanY(s),
			"rand_mean_thpt_kBps": meanY(r),
		},
	}
}

// fctCDF reduces to the fig. 8/11/14/16/18 series.
func fctCDF(scda, rand *cluster.Metrics) FigureResult {
	s, r := scda.FCTCDF(), rand.FCTCDF()
	return FigureResult{
		XLabel: "FCT (sec)", YLabel: "FCT CDF",
		Series: []stats.Series{{Name: "SCDA", Points: s.Points(64)}, {Name: "RandTCP", Points: r.Points(64)}},
		Summary: map[string]float64{
			"scda_median_fct": s.Quantile(0.5),
			"rand_median_fct": r.Quantile(0.5),
			"scda_mean_fct":   scda.MeanFCT(),
			"rand_mean_fct":   rand.MeanFCT(),
		},
	}
}

// afct returns the fig. 9/12/13/15 reduction with the given size bin
// (bytes) and x-axis unit divisor.
func afct(binBytes, xDiv float64, xlabel string) func(scda, rand *cluster.Metrics) FigureResult {
	scale := func(pts []stats.Point) []stats.Point {
		for i := range pts {
			pts[i].X /= xDiv
		}
		return pts
	}
	return func(scda, rand *cluster.Metrics) FigureResult {
		return FigureResult{
			XLabel: xlabel, YLabel: "AFCT (sec)",
			Series: []stats.Series{
				{Name: "SCDA", Points: scale(scda.AFCTBySize(binBytes))},
				{Name: "RandTCP", Points: scale(rand.AFCTBySize(binBytes))},
			},
			Summary: map[string]float64{
				"scda_mean_fct": scda.MeanFCT(),
				"rand_mean_fct": rand.MeanFCT(),
			},
		}
	}
}

func meanY(pts []stats.Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	s := 0.0
	for _, p := range pts {
		s += p.Y
	}
	return s / float64(len(pts))
}

// RunFigures regenerates the given figures (all of them, in paper order,
// when ids is nil), returning results in input order. It simulates each
// distinct (run, system, seed) cell once, concurrently on the pool (nil =
// default GOMAXPROCS pool; runner.Serial() recovers the plain loop), and
// reduces every requested figure from those cells, so the 12 figures cost
// 5 runs; nothing outlives the call. reps <= 1 runs at sc.Seed. reps > 1
// runs at reps seeds derived from sc.Seed and aggregates each figure's
// replicates to mean curves with 95% CI error bars (stats.Series.YErr),
// and its summary values to replicate means with a "<key>_ci95"
// half-width companion per key and a "replicates" count.
func RunFigures(ids []string, sc Scale, reps int, p *runner.Pool) ([]FigureResult, error) {
	rows := figures
	if ids != nil {
		rows = make([]figure, len(ids))
		for i, id := range ids {
			j := slices.IndexFunc(figures, func(f figure) bool { return f.id == id })
			if j < 0 {
				return nil, fmt.Errorf("experiments: unknown figure %q", id)
			}
			rows[i] = figures[j]
		}
	}
	first := map[paperRun]int{} // run → its index in runs
	var runs []paperRun
	for _, f := range rows {
		if _, ok := first[f.run]; !ok {
			first[f.run] = len(runs)
			runs = append(runs, f.run)
		}
	}
	seeds := []uint64{sc.Seed}
	if reps > 1 {
		seeds = runner.DeriveSeeds(sc.Seed, reps)
	}
	// cell 2*(run*len(seeds) + seed) is SCDA; the next cell is RandTCP
	systems := []cluster.System{cluster.SCDA, cluster.RandTCP}
	cells, err := runner.Map(p, 2*len(runs)*len(seeds), func(c int) (*cluster.Metrics, error) {
		rsc := sc
		rsc.Seed = seeds[c/2%len(seeds)]
		return runs[c/2/len(seeds)].simulate(systems[c%2], rsc)
	})
	if err != nil {
		return nil, err
	}
	out := make([]FigureResult, len(rows))
	for i, f := range rows {
		perSeed := make([]FigureResult, len(seeds))
		for j := range seeds {
			c := 2 * (first[f.run]*len(seeds) + j)
			perSeed[j] = f.reduce(cells[c], cells[c+1])
			perSeed[j].ID, perSeed[j].Title = f.id, f.title
		}
		out[i] = perSeed[0]
		if reps > 1 {
			out[i] = aggregateFigure(perSeed)
		}
	}
	return out, nil
}

// aggregateFigure reduces replicate runs of the same figure (one per seed)
// to a single result: mean series with 95% CI error bars, mean summary
// values with "<key>_ci95" companions, and a "replicates" count. Labels
// are taken from the first run.
func aggregateFigure(runs []FigureResult) FigureResult {
	out := runs[0]
	allSeries := make([][]stats.Series, len(runs))
	for i, r := range runs {
		allSeries[i] = r.Series
	}
	out.Series = stats.AggregateSeries(allSeries)
	summary := map[string]float64{"replicates": float64(len(runs))}
	for k := range runs[0].Summary {
		vals := make([]float64, 0, len(runs))
		for _, r := range runs {
			vals = append(vals, r.Summary[k])
		}
		mean, ci := stats.MeanCI(vals)
		summary[k] = mean
		summary[k+"_ci95"] = ci
	}
	out.Summary = summary
	return out
}
