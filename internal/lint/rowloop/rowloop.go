// Package rowloop implements the `rowloop` analyzer: the data planes ship
// columnar batches, so algorithm code must move rows through the
// batch-granularity API (sendBatch/scatterBatch/broadcastBatch, or
// sendRows/scatterRows/broadcastRows over a materialized slice). A per-row
// ship — a call to a row-taking `send` or `broadcast` method from inside a
// loop or a per-row yield callback — silently reverts a hot path to
// row-at-a-time execution: the counters stay bit-identical (the batcher
// frames messages the same way), so nothing but throughput regresses, and
// only a linter catches it.
//
// The shipper's own internals are exempt: a method whose receiver is the
// shipper may loop over rows calling its sibling per-row methods — that is
// the sanctioned implementation of the slice-granularity API, not a hot
// path regression.
package rowloop

import (
	"go/ast"
	gotypes "go/types"

	"hybridwh/internal/lint/analysis"
	"hybridwh/internal/lint/astwalk"
)

// Analyzer is the rowloop analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "rowloop",
	Doc:  "flag per-row send/broadcast calls in loops or yield callbacks; data planes must ship batches",
	Run:  run,
}

const typesPkg = "internal/types"

func run(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			recvObj := receiverObj(pass, fd)
			astwalk.Inspect(fd.Body, func(n ast.Node, stack []ast.Node) {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return
				}
				name := sel.Sel.Name
				if name != "send" && name != "broadcast" {
					return
				}
				if !takesRow(pass, call) {
					return
				}
				// Calls through the enclosing method's own receiver are the
				// shipper implementing its slice-granularity API.
				if recvObj != nil {
					if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == recvObj {
						return
					}
				}
				if !inRowContext(stack) {
					return
				}
				pass.Reportf(call.Pos(), "per-row %s in a loop or yield callback; ship batches (sendBatch/scatterBatch/broadcastBatch) or a materialized slice (sendRows/scatterRows/broadcastRows)", name)
			})
		}
	}
	return nil, nil
}

// takesRow reports whether any argument of the call has type types.Row.
func takesRow(pass *analysis.Pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		tv, ok := pass.TypesInfo.Types[arg]
		if !ok || tv.Type == nil {
			continue
		}
		if named, ok := tv.Type.(*gotypes.Named); ok {
			obj := named.Obj()
			if obj.Name() == "Row" && astwalk.FromPkg(obj, typesPkg) {
				return true
			}
		}
	}
	return false
}

// inRowContext reports whether the node (last stack element) sits inside a
// loop body or a function literal (the per-row yield callback shape).
func inRowContext(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.FuncLit:
			return true
		}
	}
	return false
}

// receiverObj returns the object of the method's receiver, or nil for plain
// functions and anonymous receivers.
func receiverObj(pass *analysis.Pass, fd *ast.FuncDecl) gotypes.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
}
