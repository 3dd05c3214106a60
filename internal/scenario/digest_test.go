package scenario

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// digestFile pins the output bytes of every shipped job and sweep spec.
// Rewrite it with `go test ./internal/scenario -run TestShippedSpecDigests
// -update` only for a change that is meant to move simulation output, and
// say why in the change log. fullDigestFile is its full-length tier,
// rewritten the same way with `-full -update`.
const (
	digestFile     = "testdata/digests.txt"
	fullDigestFile = "testdata/digests-full.txt"
)

// full turns on TestShippedSpecDigestsFull, which takes tens of seconds,
// so the default test run leaves it out.
var full = flag.Bool("full", false, "run the full-length digest tier (TestShippedSpecDigestsFull)")

// Trimmed run lengths: packet specs arrive for at most digestPacketSeconds
// and fluid specs for at most digestFluidSeconds of simulated time, so
// the whole corpus stays affordable under `go test -race`. The full-length
// tier runs packet specs untrimmed and fluid specs for at most
// fullFluidSeconds: fluid-100k's full 20 s of arrivals drives past 100k
// resident flows and takes minutes, while 2 s (~11k resident) takes
// seconds.
const (
	digestPacketSeconds = 4
	digestFluidSeconds  = 0.5
	fullFluidSeconds    = 2
)

// trimForDigest shortens s to at most maxDur seconds of arrivals. The
// horizon, fault times and phase windows scale by the same factor, so the
// trimmed spec keeps its shape and stays valid: a fault still fires inside
// the run and a phase still starts before the arrival horizon.
func trimForDigest(s *Spec, maxDur float64) {
	if s.Duration <= maxDur {
		return
	}
	f := maxDur / s.Duration
	s.Duration = maxDur
	s.Horizon *= f
	// sweep variants share their base's slices; scale private copies
	s.Faults = append([]FaultSpec(nil), s.Faults...)
	s.Workload = append([]PhaseSpec(nil), s.Workload...)
	for i := range s.Faults {
		s.Faults[i].At *= f
	}
	for i := range s.Workload {
		s.Workload[i].Start *= f
		s.Workload[i].Duration *= f
	}
}

// digestLines runs one expanded, trimmed spec and returns one
// "<sha256>  <file>" line per CSV scda-sim -scenario would write for it:
// the summary, every series and the trace when the spec asks for one.
func digestLines(t *testing.T, s *Spec) []string {
	t.Helper()
	r, err := Run(s)
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	var lines []string
	add := func(suffix string, write func(*bytes.Buffer) error) {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			t.Fatalf("%s-%s: %v", s.Name, suffix, err)
		}
		lines = append(lines, fmt.Sprintf("%x  %s-%s", sha256.Sum256(b.Bytes()), s.Name, suffix))
	}
	add("summary.csv", func(b *bytes.Buffer) error { return r.WriteSummaryCSV(b) })
	for _, g := range r.Groups {
		add(g.Kind+".csv", func(b *bytes.Buffer) error { return r.WriteSeriesCSV(b, g.Kind) })
	}
	if r.HasTrace() {
		add("trace.csv", func(b *bytes.Buffer) error { return r.WriteTraceCSV(b) })
	}
	return lines
}

// TestShippedSpecDigests pins simulation output against history: every
// job and sweep spec under scenarios/ runs trimmed to a CI-affordable
// length, and the SHA-256 of each CSV it writes must match
// testdata/digests.txt. The search spec is left out: its evaluations are
// variants of the power-save base. A refactor of the engines or the
// cluster is behaviour-preserving exactly when this file does not move.
func TestShippedSpecDigests(t *testing.T) {
	checkDigests(t, digestFile, func(s *Spec) {
		maxDur := float64(digestPacketSeconds)
		if eng, _ := s.engineKind(); eng == EngineFluid {
			maxDur = digestFluidSeconds
		}
		trimForDigest(s, maxDur)
	})
}

// TestShippedSpecDigestsFull is the full-length tier: every shipped
// packet job and sweep spec runs untrimmed, and every fluid spec for
// fullFluidSeconds of arrivals, so a last-digit change that the trimmed
// corpus averages away (a fused multiply-add in the power model, a tie
// fired out of order late in a run, a repair that drifts once thousands of
// flows are resident) still moves a digest. It runs only under -full.
func TestShippedSpecDigestsFull(t *testing.T) {
	if !*full {
		t.Skip("full-length tier: run with -full")
	}
	checkDigests(t, fullDigestFile, func(s *Spec) {
		if eng, _ := s.engineKind(); eng == EngineFluid {
			trimForDigest(s, fullFluidSeconds)
		}
	})
}

// checkDigests runs every shipped job and sweep variant, after prepare
// has shortened it, and compares the CSV digests with file, rewriting the
// file first under -update.
func checkDigests(t *testing.T, file string, prepare func(*Spec)) {
	specs, err := LoadDir(filepath.Join("..", "..", "scenarios"))
	if err != nil {
		t.Fatal(err)
	}
	var jobs []*Spec
	for _, s := range specs {
		if s.Search == nil {
			jobs = append(jobs, s)
		}
	}
	variants, err := ExpandAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range variants {
		prepare(s)
		t.Run(s.Name, func(t *testing.T) {
			if err := s.Validate(); err != nil {
				t.Fatalf("prepared spec invalid: %v", err)
			}
			got = append(got, digestLines(t, s)...)
		})
	}
	if t.Failed() {
		return
	}
	text := strings.Join(got, "\n") + "\n"
	if *update {
		if err := os.WriteFile(file, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Errorf("%d digests, %s has %d", len(got), file, len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("digest moved:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
