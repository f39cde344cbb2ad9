package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"tracep/internal/analysis"
)

// CloneComplete returns the analyzer that keeps Clone methods in sync with
// their structs: a warm-up snapshot restore (proc.Snapshot) deep-clones
// state through the Clone methods of five packages (cache, isa, emu, core
// and bpred), and a struct field added without a corresponding line in
// Clone silently forks shared state between snapshot-restored runs —
// historically only caught when byte-identity broke. The method must mention
// every field of the receiver struct (a whole-struct copy such as `out := *c`
// mentions all of them); fields that are deliberately not cloned (recycling
// pools, scratch buffers) are marked //tracep:noclone.
func CloneComplete() *analysis.Analyzer {
	return methodCoverage("clonecomplete", "Clone", "noclone")
}

// StatsComplete is the same contract for ResetStats: every field is either
// reset (mentioned) or explicitly marked //tracep:nostats as model state
// that measurement intervals must preserve. Adding a counter without
// touching ResetStats is then a lint error rather than a skewed
// measured-region statistic.
func StatsComplete() *analysis.Analyzer {
	return methodCoverage("statscomplete", "ResetStats", "nostats")
}

func methodCoverage(name, method, exemptDirective string) *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: name,
		Doc:  "check that " + method + " methods mention every receiver field (exempt: //tracep:" + exemptDirective + ")",
	}
	a.Run = func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name.Name != method || fd.Recv == nil || fd.Body == nil {
					continue
				}
				checkMethodCoverage(pass, fd, exemptDirective)
			}
		}
		return nil
	}
	return a
}

func checkMethodCoverage(pass *analysis.Pass, fd *ast.FuncDecl, exemptDirective string) {
	recv := fd.Recv.List[0]
	recvObj, ok := pass.Info.Defs[recvIdent(recv)].(*types.Var)
	var recvType types.Type
	if ok {
		recvType = recvObj.Type()
	} else if tv, found := pass.Info.Types[recv.Type]; found {
		recvType = tv.Type
	}
	if recvType == nil {
		return
	}
	if ptr, isPtr := recvType.(*types.Pointer); isPtr {
		recvType = ptr.Elem()
	}
	named, ok := recvType.(*types.Named)
	if !ok {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}

	// The fields still owed a mention, minus directive-exempt ones.
	missing := make(map[*types.Var]bool, st.NumFields())
	for i := 0; i < st.NumFields(); i++ {
		missing[st.Field(i)] = true
	}
	for fv, field := range structFieldDecls(pass, named) { //tracep:orderinvariant independent deletions
		if hasDirective(field.Doc, exemptDirective) || hasDirective(field.Comment, exemptDirective) {
			delete(missing, fv)
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if sel, ok := pass.Info.Selections[n]; ok && sel.Kind() == types.FieldVal {
				if fv, ok := sel.Obj().(*types.Var); ok {
					delete(missing, fv)
				}
			}
		case *ast.StarExpr:
			// `out := *c` / `*dst = *src`: a whole-value copy of the struct
			// covers every field at once.
			if tv, ok := pass.Info.Types[n]; ok && !tv.IsType() && types.Identical(tv.Type, named) {
				clear(missing)
			}
		case *ast.CompositeLit:
			if tv, ok := pass.Info.Types[n]; ok && types.Identical(tv.Type, named) {
				coverCompositeLit(pass, n, missing)
			}
		}
		return true
	})

	if len(missing) == 0 {
		return
	}
	names := make([]string, 0, len(missing))
	for fv := range missing { //tracep:orderinvariant sorted below
		names = append(names, fv.Name())
	}
	sort.Strings(names)
	pass.Reportf(fd.Pos(), "%s.%s does not mention field(s) %s; clone/reset them or mark the field //tracep:%s",
		named.Obj().Name(), fd.Name.Name, strings.Join(names, ", "), exemptDirective)
}

// coverCompositeLit marks fields mentioned by a struct literal of the
// receiver type: keyed fields by name, and an unkeyed literal (which the
// type checker requires to be exhaustive) covers everything.
func coverCompositeLit(pass *analysis.Pass, lit *ast.CompositeLit, missing map[*types.Var]bool) {
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			clear(missing) // unkeyed: all fields present by construction
			return
		}
		if id, ok := kv.Key.(*ast.Ident); ok {
			if fv, ok := pass.Info.Uses[id].(*types.Var); ok {
				delete(missing, fv)
			}
		}
	}
}

// structFieldDecls maps the named struct's field objects to their syntax,
// so field-level directives are visible. Only fields declared in this
// package's files are found, which is always the case for the receiver's
// own package.
func structFieldDecls(pass *analysis.Pass, named *types.Named) map[*types.Var]*ast.Field {
	out := make(map[*types.Var]*ast.Field)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != named.Obj().Name() {
				return true
			}
			if pass.Info.Defs[ts.Name] != named.Obj() {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return false
			}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					if fv, ok := pass.Info.Defs[name].(*types.Var); ok {
						out[fv] = field
					}
				}
				if len(field.Names) == 0 { // embedded field
					if id := embeddedIdent(field.Type); id != nil {
						if fv, ok := pass.Info.Defs[id].(*types.Var); ok {
							out[fv] = field
						}
					}
				}
			}
			return false
		})
	}
	return out
}

func embeddedIdent(expr ast.Expr) *ast.Ident {
	switch t := expr.(type) {
	case *ast.Ident:
		return t
	case *ast.StarExpr:
		return embeddedIdent(t.X)
	case *ast.SelectorExpr:
		return t.Sel
	}
	return nil
}

func recvIdent(f *ast.Field) *ast.Ident {
	if len(f.Names) > 0 {
		return f.Names[0]
	}
	return nil
}
