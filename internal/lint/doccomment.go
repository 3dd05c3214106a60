package lint

import (
	"go/ast"
	"sort"
)

// DoccommentAnalyzer fails exported identifiers that lack doc comments,
// so there is one linting entry point for the godoc contract. It reports
// every package missing a package comment and every exported
// package-level declaration — funcs, methods with exported receivers,
// types, consts, vars — missing a doc comment, so the godoc surface cannot
// rot as packages grow.
func DoccommentAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "doccomment",
		Doc:  "requires doc comments on packages and exported identifiers",
		Run:  runDoccomment,
	}
}

func runDoccomment(p *Package) []Finding {
	var findings []Finding
	hasPkgDoc := false
	for _, file := range p.Files {
		if file.Doc != nil {
			hasPkgDoc = true
		}
	}
	if !hasPkgDoc && len(p.Files) > 0 {
		// Attribute the miss to the package's first file by name, for
		// stable output.
		files := append([]*ast.File(nil), p.Files...)
		sort.Slice(files, func(i, j int) bool {
			return p.Fset.Position(files[i].Package).Filename < p.Fset.Position(files[j].Package).Filename
		})
		findings = p.report(findings, "doccomment", "", files[0].Package,
			"package %s has no package comment", files[0].Name.Name)
	}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			findings = p.doccommentDecl(findings, decl)
		}
	}
	return findings
}

// doccommentDecl reports exported names in one top-level declaration that
// have no doc comment.
func (p *Package) doccommentDecl(findings []Finding, decl ast.Decl) []Finding {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || d.Doc != nil {
			return findings
		}
		if d.Recv != nil && !receiverExported(d.Recv) {
			return findings // method on an unexported type: not godoc surface
		}
		kind := "function"
		if d.Recv != nil {
			kind = "method"
		}
		return p.report(findings, "doccomment", "", d.Pos(),
			"exported %s %s has no doc comment", kind, d.Name.Name)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					findings = p.report(findings, "doccomment", "", s.Pos(),
						"exported type %s has no doc comment", s.Name.Name)
				}
			case *ast.ValueSpec:
				for _, name := range s.Names {
					// A doc on the grouped decl, on the spec, or an inline
					// comment all count.
					if name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						findings = p.report(findings, "doccomment", "", name.Pos(),
							"exported value %s has no doc comment", name.Name)
					}
				}
			}
		}
	}
	return findings
}

// receiverExported reports whether a method's receiver base type is
// exported.
func receiverExported(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}
