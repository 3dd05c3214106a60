package experiments

import (
	"testing"

	"repro/internal/runner"
)

// tinyScale keeps figure smoke tests to well under a second each.
func tinyScale() Scale {
	return Scale{Duration: 8, BWScale: 0.05, ArrivalScale: 0.05, Seed: 3}
}

// runFigure runs one figure at tinyScale and checks its shape.
func runFigure(t *testing.T, id string) FigureResult {
	t.Helper()
	fs, err := RunFigures([]string{id}, tinyScale(), 1, runner.Serial())
	if err != nil {
		t.Fatal(err)
	}
	f := fs[0]
	if len(f.Series) != 2 {
		t.Fatalf("%s: %d series, want SCDA + RandTCP", f.ID, len(f.Series))
	}
	for _, s := range f.Series {
		if len(s.Points) == 0 {
			t.Fatalf("%s: series %s empty", f.ID, s.Name)
		}
	}
	if f.XLabel == "" || f.YLabel == "" || f.Title == "" {
		t.Fatalf("%s: missing labels", f.ID)
	}
	return f
}

func TestFig08VideoCDF(t *testing.T) {
	f := runFigure(t, "fig08")
	// headline: SCDA median FCT below RandTCP's
	if f.Summary["scda_median_fct"] >= f.Summary["rand_median_fct"] {
		t.Fatalf("SCDA median %v not below RandTCP %v",
			f.Summary["scda_median_fct"], f.Summary["rand_median_fct"])
	}
}

func TestFig13DCAFCT(t *testing.T) {
	f := runFigure(t, "fig13")
	if f.Summary["scda_mean_fct"] >= f.Summary["rand_mean_fct"] {
		t.Fatalf("SCDA mean AFCT %v not below RandTCP %v",
			f.Summary["scda_mean_fct"], f.Summary["rand_mean_fct"])
	}
}

func TestFig17ParetoThroughput(t *testing.T) {
	f := runFigure(t, "fig17")
	if f.Summary["scda_mean_thpt_kBps"] <= 0 {
		t.Fatal("no SCDA throughput")
	}
}

// TestFigureDispatch: the table holds the 12 figures, and an unknown ID is
// an error.
func TestFigureDispatch(t *testing.T) {
	if _, err := RunFigures([]string{"fig07", "fig99"}, tinyScale(), 1, runner.Serial()); err == nil {
		t.Fatal("unknown figure accepted")
	}
	if len(figures) != 12 {
		t.Fatalf("%d figures, want 12", len(figures))
	}
}

func TestAblationMaxMin(t *testing.T) {
	r, err := AblationMaxMin(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed {
		t.Fatalf("A1 failed: %+v", r.Values)
	}
}

func TestAblationSLA(t *testing.T) {
	r, err := AblationSLA(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed {
		t.Fatalf("A2 failed: %+v", r.Values)
	}
}

func TestAblationPriority(t *testing.T) {
	r, err := AblationPriority(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed {
		t.Fatalf("A3 failed: %+v", r.Values)
	}
}

func TestAblationReservation(t *testing.T) {
	r, err := AblationReservation(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed {
		t.Fatalf("A4 failed: %+v", r.Values)
	}
}

func TestAblationNNS(t *testing.T) {
	r, err := AblationNNS(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed {
		t.Fatalf("A5 failed: %+v", r.Values)
	}
}

func TestAblationPower(t *testing.T) {
	r, err := AblationPower(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed {
		t.Fatalf("A6 failed: %+v", r.Values)
	}
}

func TestAblationSimplified(t *testing.T) {
	r, err := AblationSimplified(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed {
		t.Fatalf("A7 failed: %+v", r.Values)
	}
}

func TestAblationTopology(t *testing.T) {
	r, err := AblationTopology(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed {
		t.Fatalf("A8 failed: %+v", r.Values)
	}
}

func TestAblationOpenFlowSJF(t *testing.T) {
	r, err := AblationOpenFlowSJF(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed {
		t.Fatalf("A9 failed: %+v", r.Values)
	}
}

func TestAblationSchedulerSJF(t *testing.T) {
	r, err := AblationSchedulerSJF(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed {
		t.Fatalf("A10 failed: %+v", r.Values)
	}
}

func TestAblationFailureRecovery(t *testing.T) {
	r, err := AblationFailureRecovery(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed {
		t.Fatalf("A11 failed: %+v", r.Values)
	}
}

func TestAllAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rs, err := AllAblations(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 11 {
		t.Fatalf("%d ablations, want 11", len(rs))
	}
}

func TestClientScaleSweep(t *testing.T) {
	sc := tinyScale()
	res, err := ClientScaleSweep([]int{5, 10}, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatal("want 2 series")
	}
	for _, s := range res.Series {
		if len(s.Points) != 2 {
			t.Fatalf("series %s has %d points", s.Name, len(s.Points))
		}
	}
	// SCDA at or below RandTCP at every swept point
	for i := range res.Series[0].Points {
		if res.Series[0].Points[i].Y > res.Series[1].Points[i].Y {
			t.Fatalf("SCDA above RandTCP at %v clients", res.Series[0].Points[i].X)
		}
	}
	if _, err := ClientScaleSweep([]int{0}, sc, nil); err == nil {
		t.Fatal("zero clients accepted")
	}
}

func TestNNSScaleSweep(t *testing.T) {
	res, err := NNSScaleSweep([]int{1, 4}, tinyScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Series[0].Points
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[1].Y >= pts[0].Y {
		t.Fatalf("peak load did not drop with more NNS: %v", pts)
	}
}

// TestPaperClaim60Percent checks section X-A2's CDF claim: "more than 60%
// of SCDA flows achieve upto 50% smaller transfer time than RandTCP based
// approaches" — at least 60% of SCDA flows beat the RandTCP median, and
// the median improvement itself approaches 50%.
func TestPaperClaim60Percent(t *testing.T) {
	f := runFigure(t, "fig14")
	randMedian := f.Summary["rand_median_fct"]
	// reconstruct P(SCDA FCT <= RandTCP median) from the SCDA CDF series
	var frac float64
	for _, p := range f.Series[0].Points {
		if p.X <= randMedian {
			frac = p.Y
		}
	}
	if frac < 0.6 {
		t.Fatalf("only %.0f%% of SCDA flows beat the RandTCP median (paper: >60%%)", frac*100)
	}
	improvement := 1 - f.Summary["scda_median_fct"]/randMedian
	if improvement < 0.3 {
		t.Fatalf("median improvement %.0f%%, want approaching 50%%", improvement*100)
	}
}
