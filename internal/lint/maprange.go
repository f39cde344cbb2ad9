package lint

import (
	"go/ast"
	"go/types"

	"tracep/internal/analysis"
)

// MapRange returns the analyzer that forbids bare map iteration. Go
// randomises map iteration order per run, so a range over a map anywhere on
// a simulation or reporting path is a latent byte-identity flake against
// testdata/ci-baseline.json — exactly the class of bug that is cheap to
// prevent structurally and miserable to bisect after the fact.
//
// A loop whose effect is provably independent of visit order (marking a live
// set, copying map to map, summing counters) is annotated
// //tracep:orderinvariant, with an optional reason, on or above the range
// statement. Everything else must iterate a sorted key slice or a slice kept
// alongside the map.
//
// The analyzer additionally forbids map indexing (lookups, stores, deletes
// through index expressions) inside //tracep:noalloc functions: the warmed
// cycle loop was flattened onto direct-indexed tables (the paged rename
// file, the subscriber table, the open-addressed ARB table), and a map
// probe creeping back into a hot function is a silent performance
// regression even when it allocates nothing. A deliberate probe (the sparse
// data-memory page directory) is suppressed with //tracep:allow and a
// reason on or above the line.
func MapRange() *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "maprange",
		Doc:  "forbid map iteration unless marked //tracep:orderinvariant, and map indexing in //tracep:noalloc functions unless marked //tracep:allow",
	}
	a.Run = func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			dirs := collectFileDirs(pass.Fset, f)
			ast.Inspect(f, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := pass.Info.Types[rng.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				if dirs.orderInvariant(rng.Pos()) {
					return true
				}
				pass.Reportf(rng.Pos(), "map iteration order is nondeterministic; sort keys, or mark the loop //tracep:orderinvariant if its effect is order-independent")
				return true
			})
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !hasDirective(fd.Doc, "noalloc") {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					ix, ok := n.(*ast.IndexExpr)
					if !ok {
						return true
					}
					tv, ok := pass.Info.Types[ix.X]
					if !ok {
						return true
					}
					if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
						return true
					}
					if dirs.allowed(ix.Pos()) {
						return true
					}
					pass.Reportf(ix.Pos(), "map access in //tracep:noalloc region; use a flat table, or mark the line //tracep:allow with a reason")
					return true
				})
			}
		}
		return nil
	}
	return a
}
