package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MaprangeAnalyzer flags `range` over a map whose loop body does
// order-sensitive work: accumulating into floating-point values, appending
// to a slice declared outside the loop, or emitting output — the exact
// class of the three PR 1 determinism bugs (ratealloc per-link float sums,
// power.Model energy totals, dfs.FailServer orphan order). Go randomizes
// map iteration order, so each of these makes results differ run to run.
//
// Two ways out, both visible in the diff: sort after the loop (an append
// target passed to a sort.*/slices.Sort* call later in the same function
// suppresses the finding — the dfs.FailServer idiom), or iterate a sorted
// key slice instead of the map. A deliberately order-insensitive site can
// carry //scda:maprange-ok <reason>.
//
// Integer accumulation is exact and commutative, so it is never flagged;
// only float sums depend on iteration order. Nor is a write to a target
// private to one key: out[k] with k the range key, v.f with v the range
// value, or a variable declared in the loop body. v.Parent.f is not
// private: siblings share their parent.
func MaprangeAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "maprange",
		Doc:  "flags order-sensitive work (float sums, appends, output) inside range-over-map",
		Run:  runMaprange,
	}
}

func runMaprange(p *Package) []Finding {
	var findings []Finding
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			findings = p.maprangeFunc(findings, fd)
		}
	}
	return findings
}

// maprangeFunc checks every map-range statement in one function.
func (p *Package) maprangeFunc(findings []Finding, fd *ast.FuncDecl) []Finding {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := p.Info.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		findings = p.maprangeBody(findings, fd, rs)
		return true
	})
	return findings
}

// maprangeBody inspects one map-range body for order-sensitive constructs.
func (p *Package) maprangeBody(findings []Finding, fd *ast.FuncDecl, rs *ast.RangeStmt) []Finding {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.RangeStmt:
			if stmt != rs {
				// Nested range: X's own check fires separately; constructs
				// inside it are still order-sensitive w.r.t. the outer map,
				// so keep walking.
				return true
			}
		case *ast.AssignStmt:
			findings = p.maprangeAssign(findings, fd, rs, stmt)
		case *ast.CallExpr:
			if name, ok := p.emissionCall(stmt); ok {
				findings = p.report(findings, "maprange", "maprange-ok", stmt.Pos(),
					"%s emits output inside range over map (iteration order is nondeterministic)", name)
			}
		}
		return true
	})
	return findings
}

// maprangeAssign checks one assignment inside a map-range body for float
// accumulation and for appends to slices that outlive the loop.
func (p *Package) maprangeAssign(findings []Finding, fd *ast.FuncDecl, rs *ast.RangeStmt, as *ast.AssignStmt) []Finding {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		for _, lhs := range as.Lhs {
			if p.isFloat(lhs) && !p.perKey(lhs, rs) {
				findings = p.report(findings, "maprange", "maprange-ok", as.Pos(),
					"float accumulation inside range over map makes the sum depend on iteration order")
			}
		}
	case token.ASSIGN, token.DEFINE:
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !p.isBuiltinAppend(call) || len(call.Args) == 0 || i >= len(as.Lhs) {
				continue
			}
			target := rootIdent(call.Args[0])
			if target == nil {
				continue
			}
			obj := p.Info.ObjectOf(target)
			if obj == nil || p.perKey(call.Args[0], rs) {
				continue // one slice per key: order-insensitive
			}
			if _, isVar := obj.(*types.Var); !isVar {
				continue
			}
			// x = x + x form check: self-assigned accumulation also hits the
			// ASSIGN case for floats.
			if p.sortedAfter(fd, rs, obj) {
				continue // the dfs.FailServer idiom: accumulate, then sort
			}
			findings = p.report(findings, "maprange", "maprange-ok", as.Pos(),
				"append to %q inside range over map accumulates in nondeterministic order (sort it afterwards or iterate sorted keys)", types.ExprString(call.Args[0]))
		}
		// Plain float re-accumulation: x = x + e.
		for i, lhs := range as.Lhs {
			if as.Tok != token.ASSIGN || i >= len(as.Rhs) {
				continue
			}
			if !p.isFloat(lhs) || p.perKey(lhs, rs) {
				continue
			}
			if bin, ok := as.Rhs[i].(*ast.BinaryExpr); ok && (bin.Op == token.ADD || bin.Op == token.SUB) && p.mentions(bin, lhs) {
				findings = p.report(findings, "maprange", "maprange-ok", as.Pos(),
					"float accumulation inside range over map makes the sum depend on iteration order")
			}
		}
	}
	return findings
}

// emissionCall reports whether the call writes output (fmt print family or
// an io-style Write*/Encode method), returning a display name.
func (p *Package) emissionCall(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	if ident, ok := sel.X.(*ast.Ident); ok {
		if pkgName, ok := p.Info.Uses[ident].(*types.PkgName); ok && pkgName.Imported().Path() == "fmt" {
			switch name {
			case "Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf":
				return "fmt." + name, true
			}
			return "", false
		}
	}
	switch name {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Encode":
		if p.Info.Selections[sel] != nil { // a real method, not a package func
			return name, true
		}
	}
	return "", false
}

// sortedAfter reports whether obj is passed to a sort call after the range
// statement within the same function — the accumulate-then-sort idiom that
// restores determinism for appended slices.
func (p *Package) sortedAfter(fd *ast.FuncDecl, rs *ast.RangeStmt, obj types.Object) bool {
	sorted := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		ident, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pkgName, ok := p.Info.Uses[ident].(*types.PkgName)
		if !ok {
			return true
		}
		switch pkgName.Imported().Path() {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			root := rootIdent(arg)
			if root != nil && p.Info.ObjectOf(root) == obj {
				sorted = true
				return false
			}
		}
		return true
	})
	return sorted
}

// perKey reports whether the target e is private to one iteration of the
// map range rs, so writing it is order-insensitive: a variable declared in
// the body, the key or value variable itself, X[k] with k the range key,
// or v.f with v the range value. A target that only mentions a loop
// variable, such as v.Parent.f or X[v.id], can be shared by several keys.
func (p *Package) perKey(e ast.Expr, rs *ast.RangeStmt) bool {
	if p.declaredWithin(e, rs.Body) {
		return true
	}
	switch x := e.(type) {
	case *ast.Ident:
		return p.isRangeVar(x, rs.Key) || p.isRangeVar(x, rs.Value)
	case *ast.IndexExpr:
		return p.isRangeVar(x.Index, rs.Key)
	case *ast.SelectorExpr:
		return p.isRangeVar(x.X, rs.Value)
	}
	return false
}

// isRangeVar reports whether e is the range variable lv, which is not "_".
func (p *Package) isRangeVar(e, lv ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	lvID, lvOK := lv.(*ast.Ident)
	return ok && lvOK && lvID.Name != "_" && p.Info.ObjectOf(id) == p.Info.ObjectOf(lvID)
}

// isFloat reports whether the expression has floating-point type.
func (p *Package) isFloat(e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}

// isBuiltinAppend reports whether the call is the append builtin.
func (p *Package) isBuiltinAppend(call *ast.CallExpr) bool {
	ident, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := p.Info.Uses[ident].(*types.Builtin)
	return ok && b.Name() == "append"
}

// declaredWithin reports whether the expression's root variable is declared
// inside the given node's span (a per-iteration local).
func (p *Package) declaredWithin(e ast.Expr, n ast.Node) bool {
	root := rootIdent(e)
	if root == nil {
		return false
	}
	obj := p.Info.ObjectOf(root)
	return obj != nil && p.posWithin(obj.Pos(), n)
}

// posWithin reports whether pos falls inside n's source span.
func (p *Package) posWithin(pos token.Pos, n ast.Node) bool {
	return n.Pos() <= pos && pos <= n.End()
}

// mentions reports whether expr syntactically contains a use of the same
// object as target.
func (p *Package) mentions(expr, target ast.Expr) bool {
	tRoot := rootIdent(target)
	if tRoot == nil {
		return false
	}
	tObj := p.Info.ObjectOf(tRoot)
	if tObj == nil {
		return false
	}
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && p.Info.ObjectOf(id) == tObj {
			found = true
		}
		return !found
	})
	return found
}

// rootIdent unwraps selectors/indexes/parens/stars to the base identifier
// ("s" in s.field[i]), or nil when the base is not an identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
