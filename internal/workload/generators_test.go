package workload

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/sim"
)

func TestRegistryNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	for _, want := range []string{"video", "videonoctl", "dc", "pareto",
		"mixed", "diurnal", "flashcrowd", "zipfchurn"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("registry missing %q", want)
		}
		if Describe(want) == "" {
			t.Errorf("registry entry %q has no description", want)
		}
	}
}

func TestRegistryNewGeneratesAndErrors(t *testing.T) {
	for _, name := range Names() {
		gen, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		reqs := gen.Generate(sim.NewRNG(1), 5)
		if len(reqs) == 0 {
			t.Errorf("generator %q produced no requests in 5s", name)
		}
		// scenario validation bounds every phase's clients by this
		clients, ok := ClientPopulation(gen)
		if !ok {
			t.Errorf("generator %q reports no client population", name)
		}
		for _, r := range reqs {
			if r.Client < 0 || r.Client >= clients {
				t.Errorf("generator %q: request client %d outside its population %d", name, r.Client, clients)
				break
			}
		}
	}
	if _, ok := ClientPopulation(Program{}); ok {
		t.Error("a Program reports a client population of its own")
	}
	if _, err := New("nope"); err == nil {
		t.Fatal("New(nope) did not error")
	}
}

// TestDiurnalRateModulation: arrivals inside the peak half-period must
// dominate arrivals inside the trough half-period.
func TestDiurnalRateModulation(t *testing.T) {
	spec := DefaultDiurnalSpec()
	spec.ReadFraction = 0 // pure arrival process
	spec.Period = 30
	spec.Phase = 0
	reqs := spec.Generate(sim.NewRNG(7), 30)
	// sin > 0 on (0, 15): peak half; sin < 0 on (15, 30): trough half
	peakN, troughN := 0, 0
	for _, r := range reqs {
		if r.At < 15 {
			peakN++
		} else {
			troughN++
		}
	}
	if peakN <= troughN {
		t.Fatalf("diurnal modulation absent: peak-half %d <= trough-half %d", peakN, troughN)
	}
	// with amplitude 0.8 the halves integrate to base·(15 ± 15·2·0.8/π):
	// expect a ratio near (1+0.509)/(1−0.509) ≈ 3.1; demand at least 2
	if float64(peakN) < 2*float64(troughN) {
		t.Errorf("modulation weaker than expected: %d vs %d", peakN, troughN)
	}
}

// TestDiurnalReadsReferenceWrites: every read must target content written
// earlier in the sequence.
func TestDiurnalReadsReferenceWrites(t *testing.T) {
	spec := DefaultDiurnalSpec()
	reqs := spec.Generate(sim.NewRNG(3), 20)
	written := map[string]bool{}
	reads := 0
	for _, r := range reqs {
		if r.Op == Write {
			written[string(r.Content)] = true
			continue
		}
		reads++
		if !written[string(r.Content)] {
			t.Fatalf("read of %q before its write", r.Content)
		}
	}
	if reads == 0 {
		t.Fatal("diurnal spec with ReadFraction > 0 produced no reads")
	}
}

// TestFlashCrowdStep: hot-object reads are confined to the burst window and
// their count matches the configured rate; the hot write precedes them all.
func TestFlashCrowdStep(t *testing.T) {
	spec := DefaultFlashCrowdSpec()
	reqs := spec.Generate(sim.NewRNG(5), 30)
	if reqs[0].Content != HotContent || reqs[0].Op != Write || reqs[0].At != 0 {
		t.Fatalf("first request is not the hot write: %+v", reqs[0])
	}
	hotReads := 0
	for _, r := range reqs {
		if r.Op != Read {
			continue
		}
		if r.Content != HotContent {
			t.Fatalf("read of unexpected content %q", r.Content)
		}
		if r.At < spec.BurstStart || r.At >= spec.BurstStart+spec.BurstDuration {
			t.Fatalf("hot read at %.3f outside burst window [%v, %v)", r.At, spec.BurstStart, spec.BurstStart+spec.BurstDuration)
		}
		hotReads++
	}
	want := spec.BurstRate * spec.BurstDuration
	if float64(hotReads) < 0.7*want || float64(hotReads) > 1.3*want {
		t.Errorf("burst read count %d far from rate·duration = %.0f", hotReads, want)
	}
}

// TestZipfChurnHeadConcentrationAndTurnover: reads concentrate on few
// contents, and with churn the most-read content differs across the run's
// halves (the head turned over).
func TestZipfChurnHeadConcentrationAndTurnover(t *testing.T) {
	spec := DefaultZipfChurnSpec()
	spec.ChurnInterval = 2
	reqs := spec.Generate(sim.NewRNG(11), 40)
	readsBy := map[string]int{}
	reads := 0
	writesSeen := map[string]bool{}
	for _, r := range reqs {
		if r.Op == Write {
			writesSeen[string(r.Content)] = true
			continue
		}
		if !writesSeen[string(r.Content)] {
			t.Fatalf("read of %q before its write", r.Content)
		}
		readsBy[string(r.Content)]++
		reads++
	}
	if reads < 100 {
		t.Fatalf("too few reads to judge: %d", reads)
	}
	// Zipf s=1.3 over ≥50 contents: the top content should far exceed the
	// uniform share
	top := 0
	for _, n := range readsBy {
		if n > top {
			top = n
		}
	}
	if float64(top) < 3*float64(reads)/float64(len(writesSeen)) {
		t.Errorf("no popularity head: top=%d reads=%d catalog=%d", top, reads, len(writesSeen))
	}
	// turnover: the most-read content of the first half differs from the
	// second half's at this seed (churn promotes every 2 s over 40 s)
	headOf := func(lo, hi float64) string {
		counts := map[string]int{}
		for _, r := range reqs {
			if r.Op == Read && r.At >= lo && r.At < hi {
				counts[string(r.Content)]++
			}
		}
		best, bestN := "", -1
		for c, n := range counts {
			if n > bestN || (n == bestN && c < best) {
				best, bestN = c, n
			}
		}
		return best
	}
	if a, b := headOf(0, 20), headOf(20, 40); a == b {
		t.Errorf("popularity head did not turn over: %q in both halves", a)
	}
}

func TestZipfChurnNoChurnKeepsHead(t *testing.T) {
	spec := DefaultZipfChurnSpec()
	spec.ChurnInterval = 0
	spec.WriteRate = 0
	reqs := spec.Generate(sim.NewRNG(11), 40)
	if len(reqs) == 0 {
		t.Fatal("no requests")
	}
	// the first-written content stays rank 0 and must be the global top
	first := ""
	counts := map[string]int{}
	for _, r := range reqs {
		if r.Op == Write && first == "" {
			first = string(r.Content)
		}
		if r.Op == Read {
			counts[string(r.Content)]++
		}
	}
	best, bestN := "", -1
	for c, n := range counts {
		if n > bestN {
			best, bestN = c, n
		}
	}
	if best != first {
		t.Errorf("frozen popularity order: top read %q, want first write %q", best, first)
	}
}

// TestProgramComposition: phases offset, namespace, and merge
// deterministically; editing a later phase leaves earlier streams intact.
func TestProgramComposition(t *testing.T) {
	dc := DefaultDCSpec()
	fc := DefaultFlashCrowdSpec()
	prog := Program{Phases: []Phase{
		{Gen: dc, Start: 0},
		{Gen: fc, Start: 10, Duration: 25},
	}}
	reqs := prog.Generate(sim.NewRNG(1), 30)
	if len(reqs) == 0 {
		t.Fatal("empty program output")
	}
	for i, r := range reqs {
		if i > 0 && r.At < reqs[i-1].At {
			t.Fatalf("requests not time-ordered at %d", i)
		}
		if r.At >= 30 {
			t.Fatalf("request beyond horizon: %v", r.At)
		}
	}
	// namespacing: phase 1's hot content carries the p1: prefix and first
	// appears at its phase offset
	sawHot := false
	for _, r := range reqs {
		if r.Content == "p1:"+HotContent {
			sawHot = true
			if r.At < 10 {
				t.Fatalf("phase-1 request before its Start: %v", r.At)
			}
		}
	}
	if !sawHot {
		t.Fatal("phase 1 content not namespaced as p1:")
	}
	// phase isolation: replacing phase 1's generator must not change
	// phase 0's stream
	alt := Program{Phases: []Phase{
		{Gen: dc, Start: 0},
		{Gen: DefaultZipfChurnSpec(), Start: 10, Duration: 25},
	}}
	phase0 := func(reqs []Request) []Request {
		var out []Request
		for _, r := range reqs {
			if len(r.Content) > 3 && r.Content[:3] == "p0:" {
				out = append(out, r)
			}
		}
		return out
	}
	a := phase0(reqs)
	b := phase0(alt.Generate(sim.NewRNG(1), 30))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("editing phase 1 perturbed phase 0's request stream")
	}
}

func TestProgramValidate(t *testing.T) {
	if err := (Program{}).Validate(); err == nil {
		t.Error("empty program validated")
	}
	bad := Program{Phases: []Phase{{Gen: DiurnalSpec{}, Start: 0}}}
	if err := bad.Validate(); err == nil {
		t.Error("invalid phase spec validated")
	}
	neg := Program{Phases: []Phase{{Gen: DefaultDCSpec(), Start: -1}}}
	if err := neg.Validate(); err == nil {
		t.Error("negative phase start validated")
	}
}
