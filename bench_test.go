package repro

// One benchmark per figure of the paper's evaluation (figs. 7-18). Each
// runs the full two-system comparison (SCDA vs RandTCP) at a reduced
// scale that preserves load ratios, and reports the headline summary
// numbers as custom benchmark metrics so `go test -bench` output doubles
// as the reproduction table. EXPERIMENTS.md records paper-vs-measured.
//
// Use cmd/scda-bench for paper-scale runs and CSV series output.

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/runner"
)

// benchScale keeps a full figure run around a second so the whole suite
// completes in minutes; ratios (load vs capacity) match the paper.
func benchScale() experiments.Scale {
	return experiments.Scale{Duration: 10, BWScale: 0.05, ArrivalScale: 0.05, Seed: 1}
}

func benchFigure(b *testing.B, id string) {
	b.Helper()
	var last experiments.FigureResult
	for i := 0; i < b.N; i++ {
		sc := benchScale()
		sc.Seed = uint64(i + 1)
		fs, err := experiments.RunFigures([]string{id}, sc, 1, runner.Serial())
		if err != nil {
			b.Fatal(err)
		}
		last = fs[0]
	}
	for k, v := range last.Summary {
		b.ReportMetric(v, k)
	}
}

func BenchmarkFig07VideoThroughput(b *testing.B)      { benchFigure(b, "fig07") }
func BenchmarkFig08VideoFCTCDF(b *testing.B)          { benchFigure(b, "fig08") }
func BenchmarkFig09VideoAFCT(b *testing.B)            { benchFigure(b, "fig09") }
func BenchmarkFig10VideoNoCtlThroughput(b *testing.B) { benchFigure(b, "fig10") }
func BenchmarkFig11VideoNoCtlFCTCDF(b *testing.B)     { benchFigure(b, "fig11") }
func BenchmarkFig12VideoNoCtlAFCT(b *testing.B)       { benchFigure(b, "fig12") }
func BenchmarkFig13DCK1AFCT(b *testing.B)             { benchFigure(b, "fig13") }
func BenchmarkFig14DCK1FCTCDF(b *testing.B)           { benchFigure(b, "fig14") }
func BenchmarkFig15DCK3AFCT(b *testing.B)             { benchFigure(b, "fig15") }
func BenchmarkFig16DCK3FCTCDF(b *testing.B)           { benchFigure(b, "fig16") }
func BenchmarkFig17ParetoThroughput(b *testing.B)     { benchFigure(b, "fig17") }
func BenchmarkFig18ParetoFCTCDF(b *testing.B)         { benchFigure(b, "fig18") }

// benchAllFigures times the full 12-figure suite on the given pool. A
// serial pool (runner.Serial()) gives stable, machine-independent per-run
// cost; the parallel variant reports the wall-clock win of the runner's
// experiment-level fan-out. Same-seed results are identical either way.
func benchAllFigures(b *testing.B, pool *runner.Pool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		sc := benchScale()
		sc.Seed = uint64(i + 1)
		if _, err := experiments.RunFigures(nil, sc, 1, pool); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllFiguresSerial(b *testing.B)   { benchAllFigures(b, runner.Serial()) }
func BenchmarkAllFiguresParallel(b *testing.B) { benchAllFigures(b, nil) }

// BenchmarkAblations runs the A1-A11 design-claim validations serially so
// per-ablation cost stays comparable across runs; use scda-bench -ablations
// for the parallel path.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := benchScale()
		sc.Seed = uint64(i + 1)
		rs, err := experiments.RunAblations(sc, runner.Serial())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rs {
			if !r.Passed {
				b.Fatalf("%s failed: %+v", r.ID, r.Values)
			}
		}
	}
}
