// Package hotalloc implements the `hotalloc` analyzer: the batch hot paths
// — everything reachable from an InsertBatch, ProbeBatch or ProbeBuckets
// method — must not regress to the map-based hash-table layout the flat
// radix-partitioned table replaced. Two shapes mark that regression and nothing else in the
// repertoire: constructing a map (`make(map[...]...)` or a map literal), and
// the per-row bucket append `m[k] = append(m[k], row)`. Both allocate and
// pointer-chase per row where the sealed flat table does neither, and the
// counters stay bit-identical, so only throughput regresses — which is
// exactly what a linter, not a test, has to catch.
//
// Amortized slice staging (`p.keys = append(p.keys, k)`) is the sanctioned
// hot-path idiom and is deliberately not flagged: only appends whose
// destination is a map index expression trip the analyzer. Reachability is
// the package-local call graph (function literals inside a hot function are
// part of its body); calls that leave the package or go through an interface
// are outside one package's view and out of scope by construction.
package hotalloc

import (
	"go/ast"
	gotypes "go/types"
	"sort"

	"hybridwh/internal/lint/analysis"
	"hybridwh/internal/lint/astwalk"
)

// Analyzer is the hotalloc analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "flag map construction and per-row map-bucket appends in functions reachable from InsertBatch/ProbeBatch/ProbeBuckets hot paths",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	decls := map[gotypes.Object]*ast.FuncDecl{}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
				decls[obj] = fd
			}
		}
	}

	// Seed the worklist with the hot-path roots, in source order so the
	// attributed root is stable when several roots reach one helper.
	var roots []gotypes.Object
	for obj, fd := range decls {
		if n := fd.Name.Name; n == "InsertBatch" || n == "ProbeBatch" || n == "ProbeBuckets" {
			roots = append(roots, obj)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return decls[roots[i]].Pos() < decls[roots[j]].Pos() })

	// reach maps every hot function to the root that first reached it.
	reach := map[gotypes.Object]string{}
	queue := roots
	rootOf := map[gotypes.Object]string{}
	for _, r := range roots {
		rootOf[r] = decls[r].Name.Name
	}
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		if _, seen := reach[obj]; seen {
			continue
		}
		root := rootOf[obj]
		reach[obj] = root
		astwalk.Inspect(decls[obj].Body, func(n ast.Node, _ []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			callee := astwalk.CalleeObject(pass.TypesInfo, call)
			if callee == nil {
				return
			}
			if _, local := decls[callee]; !local {
				return
			}
			if _, seen := reach[callee]; seen {
				return
			}
			if _, queued := rootOf[callee]; !queued {
				rootOf[callee] = root
				queue = append(queue, callee)
			}
		})
	}

	// Report in source order: files, then declarations, then nodes.
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			root, hot := reach[pass.TypesInfo.Defs[fd.Name]]
			if !hot {
				continue
			}
			checkHotBody(pass, fd, root)
		}
	}
	return nil, nil
}

// checkHotBody flags the two map shapes inside one hot function body.
func checkHotBody(pass *analysis.Pass, fd *ast.FuncDecl, root string) {
	astwalk.Inspect(fd.Body, func(n ast.Node, _ []ast.Node) {
		switch e := n.(type) {
		case *ast.CompositeLit:
			if isMapType(typeOf(pass, e)) {
				pass.Reportf(e.Pos(), "map constructed in %s, reachable from %s; hot join paths use flat open-addressing tables and slice staging, not maps", fd.Name.Name, root)
			}
		case *ast.CallExpr:
			fun, ok := ast.Unparen(e.Fun).(*ast.Ident)
			if !ok || !isBuiltin(pass, fun) {
				return
			}
			switch fun.Name {
			case "make":
				if isMapType(typeOf(pass, e)) {
					pass.Reportf(e.Pos(), "map constructed in %s, reachable from %s; hot join paths use flat open-addressing tables and slice staging, not maps", fd.Name.Name, root)
				}
			case "append":
				if len(e.Args) == 0 {
					return
				}
				if idx, ok := ast.Unparen(e.Args[0]).(*ast.IndexExpr); ok && isMapType(typeOf(pass, idx.X)) {
					pass.Reportf(e.Pos(), "per-row append into a map bucket in %s, reachable from %s; stage rows in flat per-partition slices instead", fd.Name.Name, root)
				}
			}
		}
	})
}

func typeOf(pass *analysis.Pass, e ast.Expr) gotypes.Type {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok {
		return nil
	}
	return tv.Type
}

func isMapType(t gotypes.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*gotypes.Map)
	return ok
}

func isBuiltin(pass *analysis.Pass, id *ast.Ident) bool {
	_, ok := pass.TypesInfo.Uses[id].(*gotypes.Builtin)
	return ok
}
