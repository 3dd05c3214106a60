package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// want is one expectation parsed from a fixture's `// want` comments: a
// finding on the given line whose message contains text.
type want struct {
	line int
	text string
	used bool
}

// wantSegRe extracts the quoted segments of a want comment: double-quoted
// Go strings or backquoted raw strings (for expectations that themselves
// contain double quotes).
var wantSegRe = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// parseWants scans every .go file of a fixture directory for `// want`
// comments. A want trailing code applies to its own line; a want on a
// comment-only line applies to the line below it (needed where a trailing
// comment would count as documentation and suppress the very finding under
// test).
func parseWants(t *testing.T, dir string) map[string][]*want {
	t.Helper()
	out := map[string][]*want{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, "// want ")
			if idx < 0 {
				continue
			}
			target := i + 1 // lines are 1-based
			if strings.TrimSpace(line[:idx]) == "" {
				target = i + 2 // comment-only line: expectation is about the next line
			}
			segs := wantSegRe.FindAllStringSubmatch(line[idx+len("// want "):], -1)
			if len(segs) == 0 {
				t.Fatalf("%s:%d: want comment with no quoted expectation", e.Name(), i+1)
			}
			for _, m := range segs {
				text := m[1]
				if text == "" && m[2] != "" {
					u, err := strconv.Unquote(`"` + m[2] + `"`)
					if err != nil {
						t.Fatalf("%s:%d: bad want string: %v", e.Name(), i+1, err)
					}
					text = u
				}
				out[e.Name()] = append(out[e.Name()], &want{line: target, text: text})
			}
		}
	}
	return out
}

// loadFixture type-checks one testdata package under a synthetic
// repro/internal/... import path (so the wallclock deterministic-package
// contract applies to it) and runs the full suite over it.
func loadFixture(t *testing.T, loader *Loader, name string) (*Package, []Finding) {
	t.Helper()
	p, err := loader.LoadDir(filepath.Join("testdata", name), "repro/internal/lintfixtures/"+name)
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	return p, Run([]*Package{p}, Analyzers())
}

// matchWants checks findings against expectations: every finding must match
// an unused want on its (file, line), and every want must be consumed.
// extra holds expectations that cannot be expressed as comments (a trailing
// comment on a type or value spec counts as its documentation).
func matchWants(t *testing.T, name string, findings []Finding, wants map[string][]*want, extra map[string][]*want) {
	t.Helper()
	for file, ws := range extra {
		wants[file] = append(wants[file], ws...)
	}
	for _, f := range findings {
		base := filepath.Base(f.File)
		matched := false
		for _, w := range wants[base] {
			if !w.used && w.line == f.Line && strings.Contains(f.Message, w.text) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected finding: %s", name, f)
		}
	}
	for file, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s: missing finding at %s:%d containing %q", name, file, w.line, w.text)
			}
		}
	}
}

// TestFixtures runs the full analyzer suite over each seeded-violation
// fixture package and checks the findings against the `// want` comments.
func TestFixtures(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	extras := map[string]map[string][]*want{
		// Trailing comments on type/value specs count as documentation, so
		// these expectations cannot live in the fixture file itself.
		"doccomment": {"extra.go": {
			{line: 3, text: "exported type Bare has no doc comment"},
			{line: 5, text: "exported value Loose has no doc comment"},
			{line: 7, text: "exported value Knob has no doc comment"},
		}},
	}
	for _, name := range []string{"wallclock", "maprange", "noalloc", "lockorder", "doccomment", "histbugs"} {
		t.Run(name, func(t *testing.T) {
			p, findings := loadFixture(t, loader, name)
			wants := parseWants(t, p.Dir)
			matchWants(t, name, findings, wants, extras[name])
		})
	}
}

// TestCleanFixture asserts the all-clean package yields zero findings from
// every analyzer.
func TestCleanFixture(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	_, findings := loadFixture(t, loader, "clean")
	for _, f := range findings {
		t.Errorf("clean fixture: unexpected finding: %s", f)
	}
}

// TestMaprangeCatchesHistoricalBugs asserts the maprange analyzer alone
// flags each historical determinism-bug reconstruction.
func TestMaprangeCatchesHistoricalBugs(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	p, err := loader.LoadDir(filepath.Join("testdata", "histbugs"), "repro/internal/lintfixtures/histbugs")
	if err != nil {
		t.Fatal(err)
	}
	findings := Run([]*Package{p}, []*Analyzer{MaprangeAnalyzer()})
	hit := map[string]bool{}
	for _, f := range findings {
		hit[filepath.Base(f.File)] = true
	}
	for _, file := range []string{"ratealloc_bug.go", "power_bug.go", "dfs_bug.go", "hierarchy_bug.go"} {
		if !hit[file] {
			t.Errorf("maprange missed the historical bug in %s", file)
		}
	}
}
