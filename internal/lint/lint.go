// Package lint implements scda-lint, the repo's stdlib-only static-analysis
// suite. It enforces, at the AST/type level, the contracts the rest of the
// codebase promises at runtime: deterministic outputs (no wall clock or
// global RNG in decision paths, no unordered map iteration feeding results),
// allocation-free hot paths (functions annotated //scda:noalloc), a fixed
// mutex-acquisition order in the service layer (//scda:lockorder), and doc
// comments on every exported identifier.
//
// The suite is built only on go/ast, go/parser, go/types and go/importer —
// no golang.org/x/tools dependency — so go.mod stays empty. Packages are
// loaded by the module-aware loader in load.go; each analyzer is a pure
// function from a loaded package to findings. cmd/scda-lint is the CLI.
//
// # Annotations
//
// Analyzers honor escape-hatch comments, each of which must carry a reason:
//
//	//scda:wallclock-ok <reason>   exempts a wall-clock/global-rand site
//	//scda:maprange-ok <reason>    exempts a map-iteration site
//	//scda:alloc-ok <reason>       exempts a site inside a //scda:noalloc func
//	//scda:lockorder-ok <reason>   exempts a lock-acquisition site
//
// A directive written without a reason is itself a finding: exemptions must
// say why or they rot. Directives attach to the offending line, to the line
// directly above it, or (for the wallclock/maprange analyzers) to the
// enclosing function's doc comment when the whole function is exempt.
//
// Contract-carrying annotations (the inverse direction — code opting *into*
// a check) are //scda:noalloc on a function doc comment and a package-level
// //scda:lockorder directive; see noalloc.go and lockorder.go.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one diagnostic: a position, the analyzer that produced it, and
// a message. Findings render as "file:line: [analyzer] message" with the
// file path relative to the module root.
type Finding struct {
	// File is the module-root-relative path (forward slashes).
	File string
	// Line is the 1-based line of the offending construct.
	Line int
	// Analyzer names the analyzer that fired.
	Analyzer string
	// Message describes the violation.
	Message string
}

// String renders the finding in the canonical "file:line: [analyzer]
// message" form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Analyzer, f.Message)
}

// Analyzer is one check: a name (used in finding tags and the -analyzers
// flag), a one-line doc string, and the run function.
type Analyzer struct {
	// Name tags findings and selects the analyzer on the CLI.
	Name string
	// Doc is the one-line description shown by scda-lint -list.
	Doc string
	// Run inspects one loaded package and returns its findings.
	Run func(p *Package) []Finding
}

// Analyzers returns the full suite in canonical order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		WallclockAnalyzer(),
		MaprangeAnalyzer(),
		NoallocAnalyzer(),
		LockorderAnalyzer(),
		DoccommentAnalyzer(),
	}
}

// Run applies the given analyzers to every package and returns the combined
// findings sorted by file, line, analyzer, message.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var out []Finding
	for _, p := range pkgs {
		for _, a := range analyzers {
			out = append(out, a.Run(p)...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		if out[i].Analyzer != out[j].Analyzer {
			return out[i].Analyzer < out[j].Analyzer
		}
		return out[i].Message < out[j].Message
	})
	return out
}

// directive holds one parsed //scda:<name> comment.
type directive struct {
	name   string // "wallclock-ok", "noalloc", ...
	reason string // text after the name, may be empty
	line   int    // line the comment sits on (last line of its group)
}

// directivesByLine indexes every //scda: comment in a file by the line each
// comment line sits on.
func directivesByLine(fset *token.FileSet, file *ast.File) map[int][]directive {
	out := map[int][]directive{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, "scda:") {
				continue
			}
			rest := strings.TrimPrefix(text, "scda:")
			name, reason, _ := strings.Cut(rest, " ")
			line := fset.Position(c.Pos()).Line
			out[line] = append(out[line], directive{name: name, reason: strings.TrimSpace(reason), line: line})
		}
	}
	return out
}

// exemption looks for a //scda:<name> directive covering the given line: on
// the line itself or on the line directly above. It returns whether one was
// found and whether it carried a reason.
func exemption(dirs map[int][]directive, line int, name string) (found, hasReason bool) {
	for _, l := range []int{line, line - 1} {
		for _, d := range dirs[l] {
			if d.name == name {
				return true, d.reason != ""
			}
		}
	}
	return false, false
}

// funcExemption reports whether the enclosing function's doc comment carries
// the named directive (and whether it has a reason).
func funcExemption(fn *ast.FuncDecl, name string) (found, hasReason bool) {
	if fn == nil || fn.Doc == nil {
		return false, false
	}
	for _, c := range fn.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if !strings.HasPrefix(text, "scda:"+name) {
			continue
		}
		rest := strings.TrimSpace(strings.TrimPrefix(text, "scda:"+name))
		return true, rest != ""
	}
	return false, false
}

// enclosingFunc returns the innermost FuncDecl in file containing pos.
func enclosingFunc(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}

// report is the shared finding constructor: it resolves pos, applies the
// analyzer's escape-hatch directive (if any) and appends either the finding
// or — for a directive written without a reason — a finding demanding one.
// okDirective is empty for analyzers without an escape hatch.
func (p *Package) report(findings []Finding, analyzer, okDirective string, pos token.Pos, format string, args ...any) []Finding {
	position := p.Fset.Position(pos)
	line := position.Line
	file := p.astFile(pos)
	if okDirective != "" && file != nil {
		dirs := p.fileDirectives(file)
		found, hasReason := exemption(dirs, line, okDirective)
		if !found {
			if fn := enclosingFunc(file, pos); fn != nil {
				found, hasReason = funcExemption(fn, okDirective)
			}
		}
		if found {
			if !hasReason {
				return append(findings, Finding{
					File:     p.relFile(position.Filename),
					Line:     line,
					Analyzer: analyzer,
					Message:  fmt.Sprintf("//scda:%s directive has no reason", okDirective),
				})
			}
			return findings
		}
	}
	return append(findings, Finding{
		File:     p.relFile(position.Filename),
		Line:     line,
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}
