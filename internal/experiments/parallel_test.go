package experiments

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/runner"
)

// snapshot renders a figure result to a canonical string so serial and
// parallel runs can be compared byte for byte.
func snapshot(f FigureResult) string {
	s := fmt.Sprintf("%s|%s|%s|%s\n", f.ID, f.Title, f.XLabel, f.YLabel)
	for _, ser := range f.Series {
		s += fmt.Sprintf("%s:%v yerr=%v\n", ser.Name, ser.Points, ser.YErr)
	}
	keys := make([]string, 0, len(f.Summary))
	for k := range f.Summary {
		keys = append(keys, k)
	}
	// map order is random; canonicalise
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			if keys[j] < keys[i] {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	for _, k := range keys {
		s += fmt.Sprintf("%s=%v\n", k, f.Summary[k])
	}
	return s
}

// TestParallelFiguresDeterministic is the runner's core contract: the full
// figure suite through an 8-wide pool is byte-identical to a serial run at
// the same seed.
func TestParallelFiguresDeterministic(t *testing.T) {
	sc := tinyScale()

	serial, err := RunFigures(nil, sc, 1, runner.Serial())
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunFigures(nil, sc, 1, runner.New(8))
	if err != nil {
		t.Fatal(err)
	}

	if len(serial) != len(parallel) {
		t.Fatalf("serial %d figures, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := snapshot(serial[i]), snapshot(parallel[i])
		if s != p {
			t.Fatalf("figure %s diverges between serial and parallel runs:\n--- serial\n%s--- parallel\n%s",
				serial[i].ID, s, p)
		}
	}
}

// TestFiguresShareFiveRuns: the 12 figures reduce exactly 5 runs, and the
// figures of one run read its cells without disturbing one another. Figs.
// 7-9 share a run; requested together, duplicates included, each must equal
// the same figure requested alone. The lone requests run concurrently, so
// under -race this also shows that RunFigures calls share no state.
func TestFiguresShareFiveRuns(t *testing.T) {
	runs := map[paperRun]bool{}
	for _, f := range figures {
		runs[f.run] = true
	}
	if len(runs) != 5 {
		t.Fatalf("%d figures map to %d runs, want 5", len(figures), len(runs))
	}

	sc := tinyScale()
	ids := []string{"fig07", "fig08", "fig09", "fig07", "fig08", "fig09"}
	together, err := RunFigures(ids, sc, 1, runner.New(2))
	if err != nil {
		t.Fatal(err)
	}
	alone := make([]FigureResult, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i := range alone {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			fs, err := RunFigures(ids[i:i+1], sc, 1, runner.New(2))
			if err == nil {
				alone[i] = fs[0]
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", ids[i], err)
		}
	}
	for i, f := range together {
		if snapshot(f) != snapshot(alone[i%3]) {
			t.Fatalf("%s (request %d) differs from %s requested alone", ids[i], i, ids[i])
		}
	}
}

func TestReplicateFigure(t *testing.T) {
	sc := tinyScale()
	sc.Duration = 5
	fs, err := RunFigures([]string{"fig13"}, sc, 3, runner.New(3))
	if err != nil {
		t.Fatal(err)
	}
	f := fs[0]
	if f.Summary["replicates"] != 3 {
		t.Fatalf("replicates = %v", f.Summary["replicates"])
	}
	if _, ok := f.Summary["scda_mean_fct_ci95"]; !ok {
		t.Fatalf("missing CI companion key in %v", f.Summary)
	}
	for _, s := range f.Series {
		if len(s.Points) == 0 {
			t.Fatalf("series %s empty", s.Name)
		}
		if len(s.YErr) != len(s.Points) {
			t.Fatalf("series %s: %d error bars for %d points", s.Name, len(s.YErr), len(s.Points))
		}
	}
	// replication is itself deterministic
	again, err := RunFigures([]string{"fig13"}, sc, 3, runner.Serial())
	if err != nil {
		t.Fatal(err)
	}
	if snapshot(f) != snapshot(again[0]) {
		t.Fatal("replicated figure differs between parallel and serial execution")
	}
}

func TestSweepParallelMatchesSerial(t *testing.T) {
	sc := tinyScale()
	sc.Duration = 5
	counts := []int{5, 10}
	serial, err := ClientScaleSweep(counts, sc, runner.Serial())
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ClientScaleSweep(counts, sc, runner.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%v", serial) != fmt.Sprintf("%v", parallel) {
		t.Fatalf("sweep diverges:\nserial   %v\nparallel %v", serial, parallel)
	}
}

func TestRunAblationsParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc := tinyScale()
	serial, err := RunAblations(sc, runner.Serial())
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunAblations(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("serial %d ablations, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].ID != parallel[i].ID || serial[i].Passed != parallel[i].Passed {
			t.Fatalf("ablation %s diverges", serial[i].ID)
		}
		if fmt.Sprintf("%v", serial[i].Values) == "" {
			t.Fatal("empty values")
		}
		for k, v := range serial[i].Values {
			if pv, ok := parallel[i].Values[k]; !ok || pv != v {
				// NaN == NaN is false; treat both-NaN as equal
				if !(v != v && pv != pv) {
					t.Fatalf("%s: %s = %v serial vs %v parallel", serial[i].ID, k, v, pv)
				}
			}
		}
	}
}

// TestBaselineClientsDerivation guards the satellite fix: the sweep's
// per-client-demand anchor must track the default DC spec, not a literal.
func TestBaselineClientsDerivation(t *testing.T) {
	if baselineClients != dcSpec(tinyScale()).Clients {
		t.Fatalf("baselineClients = %d, default DC spec has %d clients",
			baselineClients, dcSpec(tinyScale()).Clients)
	}
}
