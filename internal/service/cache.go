package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/scenario"
)

// artifacts is the rendered, immutable output of one completed run: a
// small map of artifact name → bytes ("result.json", "summary.csv", one
// "<kind>.csv" per requested series reduction). Rendering happens exactly
// once, at completion, so cache hits — the million-user hot path — serve
// pre-encoded bytes and repeated fetches of one job are byte-identical by
// construction. The CSV artifacts share their encoders with
// scenario.Result.WriteFiles, so they are also byte-identical to what
// `scda-sim -scenario` writes for the same spec, seed and reps. The disk
// cache persists the whole map as one entry file (writeEntry).
type artifacts struct {
	files map[string][]byte
}

// Artifact file names; the series CSVs are named "<kind>.csv" after the
// scenario output kinds (throughput.csv, fct-cdf.csv, afct.csv).
const (
	artResult  = "result.json"
	artSummary = "summary.csv"
)

// file returns the named artifact's bytes.
func (a *artifacts) file(name string) ([]byte, bool) {
	b, ok := a.files[name]
	return b, ok
}

// resultWire is the JSON shape of the result endpoint's default document.
type resultWire struct {
	// Name, Seed, Replicates, Requests identify the run.
	Name       string `json:"name"`
	Seed       uint64 `json:"seed"`
	Replicates int    `json:"replicates"`
	Requests   int    `json:"requests"`
	// Summary holds the headline metrics (replicated runs add _ci95 keys).
	Summary map[string]float64 `json:"summary"`
	// Groups carries the requested series reductions in spec order.
	Groups []groupWire `json:"groups"`
}

// groupWire mirrors scenario.SeriesGroup.
type groupWire struct {
	// Kind is the reduction ("throughput", "fct-cdf", "afct").
	Kind string `json:"kind"`
	// XLabel / YLabel are the axis labels.
	XLabel string `json:"xLabel"`
	YLabel string `json:"yLabel"`
	// Series holds one entry per system curve.
	Series []seriesWire `json:"series"`
}

// seriesWire mirrors stats.Series.
type seriesWire struct {
	// Name labels the curve.
	Name string `json:"name"`
	// Points are [x, y] pairs.
	Points [][2]float64 `json:"points"`
	// YErr, when present, is the 95% CI half-width per point.
	YErr []float64 `json:"yerr,omitempty"`
}

// render builds the artifacts for a completed result: the JSON document
// plus the same CSV bytes the CLI writes.
func render(r *scenario.Result, reps int) (*artifacts, error) {
	a := &artifacts{files: make(map[string][]byte, len(r.Groups)+2)}

	wire := resultWire{
		Name:       r.Spec.Name,
		Seed:       r.Spec.Seed,
		Replicates: reps,
		Requests:   r.Requests,
		Summary:    r.Summary,
		Groups:     make([]groupWire, 0, len(r.Groups)),
	}
	for _, g := range r.Groups {
		gw := groupWire{Kind: g.Kind, XLabel: g.XLabel, YLabel: g.YLabel}
		for _, s := range g.Series {
			sw := seriesWire{Name: s.Name, Points: make([][2]float64, len(s.Points)), YErr: s.YErr}
			for i, p := range s.Points {
				sw.Points[i] = [2]float64{p.X, p.Y}
			}
			gw.Series = append(gw.Series, sw)
		}
		wire.Groups = append(wire.Groups, gw)
	}
	doc, err := json.MarshalIndent(wire, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("service: rendering result: %w", err)
	}
	a.files[artResult] = append(doc, '\n')

	var sum bytes.Buffer
	if err := r.WriteSummaryCSV(&sum); err != nil {
		return nil, fmt.Errorf("service: rendering summary: %w", err)
	}
	a.files[artSummary] = sum.Bytes()

	for _, g := range r.Groups {
		var buf bytes.Buffer
		if err := r.WriteSeriesCSV(&buf, g.Kind); err != nil {
			return nil, fmt.Errorf("service: rendering %s: %w", g.Kind, err)
		}
		a.files[g.Kind+".csv"] = buf.Bytes()
	}
	if r.HasTrace() {
		// outputs.trace parity with the CLI: single-seed runs carry the
		// replayable workload trace as a fourth CSV (?csv=trace).
		var buf bytes.Buffer
		if err := r.WriteTraceCSV(&buf); err != nil {
			return nil, fmt.Errorf("service: rendering trace: %w", err)
		}
		a.files["trace.csv"] = buf.Bytes()
	}
	return a, nil
}

// seriesKinds lists the series artifact names in a stable order for
// discovery (status pages, tests).
func (a *artifacts) seriesKinds() []string {
	kinds := make([]string, 0, len(a.files))
	for name := range a.files {
		if name != artResult && name != artSummary && strings.HasSuffix(name, ".csv") {
			kinds = append(kinds, strings.TrimSuffix(name, ".csv"))
		}
	}
	sort.Strings(kinds)
	return kinds
}

// entryMagic opens every disk-cache entry file. One entry is one file
// named by its cache key:
//
//	scda-cache-entry 1
//	<name> <length>    one line per artifact, names in increasing byte order
//	                   an empty line
//	<bytes>            the artifacts' bytes, in the same order
//
// Lengths are canonical decimal (no sign, no leading zeros) and account
// for every byte after the empty line. Equal artifacts therefore always
// give the same file, and decodeEntry accepts exactly what writeEntry
// writes.
const entryMagic = "scda-cache-entry 1\n"

// writeEntry writes the artifacts to w in the entry format and returns the
// number of bytes written. The header goes first, then each artifact from
// its own slice: no second copy of the entry is assembled.
func (a *artifacts) writeEntry(w io.Writer) (int64, error) {
	names := make([]string, 0, len(a.files))
	for name := range a.files {
		if name == "" || strings.ContainsAny(name, "/ \n") {
			return 0, fmt.Errorf("service: artifact name %q cannot be persisted", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	hdr := []byte(entryMagic)
	for _, name := range names {
		hdr = append(hdr, name...)
		hdr = append(hdr, ' ')
		hdr = strconv.AppendInt(hdr, int64(len(a.files[name])), 10)
		hdr = append(hdr, '\n')
	}
	hdr = append(hdr, '\n')
	n, err := w.Write(hdr)
	written := int64(n)
	for _, name := range names {
		if err != nil {
			break
		}
		n, err = w.Write(a.files[name])
		written += int64(n)
	}
	return written, err
}

// save persists the artifacts as one entry file at path, written under a
// ".tmp-" sibling name and renamed into place, so a crashed writer never
// leaves a half-written entry where a reader looks. A concurrent writer of
// the same key is fine: entries are content-addressed, so whichever rename
// lands last puts the same bytes in place. It returns the entry file's
// size, header included.
func (a *artifacts) save(path string) (int64, error) {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	f, err := os.CreateTemp(dir, ".tmp-"+filepath.Base(path)+"-")
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	size, err := a.writeEntry(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return size, nil
}

// decodeEntry parses an entry file. It accepts exactly what writeEntry
// writes: the magic line, strictly increasing names with no '/' or space,
// canonical lengths that account for every byte after the empty line, and
// a result.json that is valid JSON. The artifacts are slices of b, not
// copies.
func decodeEntry(b []byte) (*artifacts, bool) {
	rest, ok := bytes.CutPrefix(b, []byte(entryMagic))
	if !ok {
		return nil, false
	}
	type field struct {
		name []byte
		size int
	}
	// Room for a typical entry's artifacts on the stack: a damaged entry
	// is rejected without allocating.
	var buf [8]field
	fields := buf[:0]
	total := 0
	for {
		line, after, found := bytes.Cut(rest, []byte{'\n'})
		if !found {
			return nil, false
		}
		rest = after
		if len(line) == 0 {
			break
		}
		name, num, found := bytes.Cut(line, []byte{' '})
		size, canonical := entryLen(num, len(rest)-total)
		if !found || !canonical || len(name) == 0 || bytes.IndexByte(name, '/') >= 0 ||
			(len(fields) > 0 && bytes.Compare(name, fields[len(fields)-1].name) <= 0) {
			return nil, false
		}
		total += size
		fields = append(fields, field{name, size})
	}
	if total != len(rest) {
		return nil, false
	}
	a := &artifacts{files: make(map[string][]byte, len(fields))}
	for _, f := range fields {
		a.files[string(f.name)] = rest[:f.size:f.size]
		rest = rest[f.size:]
	}
	if res, ok := a.files[artResult]; !ok || !json.Valid(res) {
		return nil, false
	}
	return a, true
}

// entryLen parses a header length: canonical decimal (digits only, no
// leading zero unless it is 0) and at most limit. ok is false otherwise.
func entryLen(num []byte, limit int) (n int, ok bool) {
	if len(num) == 0 || (num[0] == '0' && len(num) > 1) {
		return 0, false
	}
	for _, c := range num {
		if c < '0' || c > '9' {
			return 0, false
		}
		if n = n*10 + int(c-'0'); n > limit {
			return 0, false
		}
	}
	return n, true
}

// loadArtifacts reads a persisted cache entry back. ok is false when the
// entry cannot be served; corrupt additionally reports that a file was
// present but its content is damaged (a header that does not account for
// its bytes, a missing or non-JSON result.json), so the caller can evict
// it rather than leave a poison entry that would fail every future load.
// An absent file is a plain miss (ok=false, corrupt=false): the entry was
// never written or was legitimately evicted.
func loadArtifacts(path string) (a *artifacts, ok, corrupt bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, false, !os.IsNotExist(err)
	}
	// tmp+rename should make a damaged entry impossible, but the cache
	// tolerates one anyway (crashed pre-rename kernels, manual tampering,
	// fault injection): corruption is a miss plus an eviction, never a
	// startup or request failure.
	if a, ok = decodeEntry(b); !ok {
		return nil, false, true
	}
	return a, true, false
}
