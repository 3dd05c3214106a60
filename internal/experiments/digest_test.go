package experiments

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/export"
	"repro/internal/runner"
	"repro/internal/stats"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.txt")

// digestFile pins the paper figures, both sweeps and every ablation metric
// at the quick scale, seed 1, over a 6 s horizon.
var digestFile = filepath.Join("testdata", "digests.txt")

// TestPaperDigests runs what `scda-bench -scale quick -duration 6
// -ablations -sweeps` runs and compares the SHA-256 of every CSV it would
// write, and every ablation metric at full precision, with digestFile.
// -update rewrites the file; do that only for a change meant to move
// output.
func TestPaperDigests(t *testing.T) {
	sc := QuickScale()
	sc.Seed = 1
	sc.Duration = 6
	pool := runner.New(0)

	var got []string
	csvLine := func(name string, series []stats.Series) {
		var buf bytes.Buffer
		if err := export.WriteSeriesLong(&buf, series); err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("%s.csv %x", name, sha256.Sum256(buf.Bytes())))
	}
	figs, err := RunFigures(nil, sc, 1, pool)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range figs {
		csvLine(f.ID, f.Series)
	}
	cs, err := ClientScaleSweep(nil, sc, pool)
	if err != nil {
		t.Fatal(err)
	}
	csvLine(cs.ID, cs.Series)
	ns, err := NNSScaleSweep(nil, sc, pool)
	if err != nil {
		t.Fatal(err)
	}
	csvLine(ns.ID, ns.Series)
	abl, err := RunAblations(sc, pool)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range abl {
		got = append(got, fmt.Sprintf("%s passed=%v", r.ID, r.Passed))
		keys := make([]string, 0, len(r.Values))
		for k := range r.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			got = append(got, fmt.Sprintf("%s %s=%s", r.ID, k, strconv.FormatFloat(r.Values[k], 'g', -1, 64)))
		}
	}

	text := strings.Join(got, "\n") + "\n"
	if *update {
		if err := os.WriteFile(digestFile, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Errorf("%d lines, %s has %d", len(got), digestFile, len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("moved:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
