package lint

import "testing"

// BenchmarkLintSelf measures an end-to-end lint of the lint package
// itself — loader construction, parsing, full type-check (including the
// transitively imported stdlib export data) and all five analyzers — the
// cost one package contributes to the CI lint step. One untimed lint runs
// first: the importer's first `go list -export` lookups fill the go
// command's build cache, ~1 s on a cold cache, and left in the timed loop
// they would decide whether the default benchtime stops at b.N = 1.
func BenchmarkLintSelf(b *testing.B) {
	lintSelf(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lintSelf(b)
	}
}

func lintSelf(b *testing.B) {
	loader, err := NewLoader(".")
	if err != nil {
		b.Fatal(err)
	}
	pkgs, err := loader.Load("./internal/lint")
	if err != nil {
		b.Fatal(err)
	}
	if findings := Run(pkgs, Analyzers()); len(findings) != 0 {
		b.Fatalf("lint package has findings: %v", findings)
	}
}
