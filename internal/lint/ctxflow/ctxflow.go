// Package ctxflow implements the `ctxflow` analyzer: the invariants that
// make queries abortable (PR 3's distributed abort protocol) must hold by
// construction, not by test luck. Two rules:
//
//  1. Context threading. Inside a function with a context.Context in scope
//     (a parameter, or captured by a closure from one), calling a callee
//     with context.Background() or context.TODO() severs the cancellation
//     chain — the callee outlives the query's abort. Thread the in-scope
//     context instead.
//
//  2. Abortable receives. Every blocking channel receive in code reachable
//     from an entry point (an exported function, or any function taking a
//     context.Context — Engine.RunCtx and the worker programs under it)
//     must be abortable: either a receive from an abort-class channel (a
//     ctx.Done() call, or a channel whose name says stop/done/abort/gone/
//     quit/cancel), or a select containing such an arm (or a default). A
//     naked receive from a data channel is exactly the shape that deadlocks
//     when a peer dies without completing the stream.
//
// Reachability runs over the package call graph including goroutine spawn
// edges (`go` statements and par.Group.Go), so worker-program closures are
// covered. The channel-name heuristic is lexical, deliberately so (like
// mutexguard): the repo's abort channels all follow the convention, and a
// data channel named `done` would be its own bug.
package ctxflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"hybridwh/internal/lint/analysis"
	"hybridwh/internal/lint/astwalk"
	"hybridwh/internal/lint/callgraph"
)

// Analyzer is the ctxflow analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "thread in-scope contexts to callees and keep every reachable blocking receive abortable (select with an abort/ctx arm)",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	g := callgraph.Build(pass)

	// parent maps literal nodes to their enclosing function node, for
	// context-in-scope propagation into closures.
	parent := map[*callgraph.Node]*callgraph.Node{}
	for _, n := range g.Nodes {
		for _, e := range n.Out {
			if e.Callee.Lit != nil {
				parent[e.Callee] = n
			}
		}
	}
	inScope := func(n *callgraph.Node) bool {
		for ; n != nil; n = parent[n] {
			if hasCtxParam(pass, n) {
				return true
			}
		}
		return false
	}

	// Rule 1: context threading.
	for _, n := range g.Nodes {
		if n.Body() == nil || !inScope(n) {
			continue
		}
		checkThreading(pass, n.Body())
	}

	// Rule 2: abortable receives, over the reachable set.
	var roots []*callgraph.Node
	for _, n := range g.Nodes {
		if n.Func == nil || n.Body() == nil {
			continue
		}
		if n.Func.Exported() || hasCtxParam(pass, n) {
			roots = append(roots, n)
		}
	}
	reach := g.Reachable(roots)
	for _, n := range g.Nodes {
		if n.Body() == nil || !reach[n] {
			continue
		}
		checkReceives(pass, n.Body())
	}
	return nil, nil
}

// hasCtxParam reports whether the node's own signature takes a
// context.Context.
func hasCtxParam(pass *analysis.Pass, n *callgraph.Node) bool {
	var sig *types.Signature
	switch {
	case n.Func != nil:
		sig = n.Func.Type().(*types.Signature)
	case n.Lit != nil:
		tv, ok := pass.TypesInfo.Types[n.Lit]
		if !ok {
			return false
		}
		sig, ok = tv.Type.(*types.Signature)
		if !ok {
			return false
		}
	default:
		return false
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isCtxType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

func isCtxType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// checkThreading flags context.Background()/context.TODO() arguments in a
// body where a real context is in scope. Nested literals are skipped — they
// are their own nodes and get their own check.
func checkThreading(pass *analysis.Pass, body *ast.BlockStmt) {
	inspectShallow(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			inner, ok := ast.Unparen(arg).(*ast.CallExpr)
			if !ok {
				continue
			}
			obj := astwalk.CalleeObject(pass.TypesInfo, inner)
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
				continue
			}
			if obj.Name() == "Background" || obj.Name() == "TODO" {
				pass.Reportf(inner.Pos(), "context.%s passed while a context is in scope; thread the caller's ctx so cancellation reaches this call", obj.Name())
			}
		}
		return true
	})
}

// checkReceives flags blocking receives that nothing can abort.
func checkReceives(pass *analysis.Pass, body *ast.BlockStmt) {
	astwalk.Inspect(body, func(n ast.Node, stack []ast.Node) {
		recv, ok := n.(*ast.UnaryExpr)
		if !ok || recv.Op != token.ARROW {
			return
		}
		// Skip receives inside nested literals: they belong to their own
		// node (stack[0] is the body itself; n is the last element).
		for i := 0; i < len(stack)-1; i++ {
			if _, isLit := stack[i].(*ast.FuncLit); isLit {
				return
			}
		}
		if isAbortChan(pass, recv.X) {
			return
		}
		sel, comm := enclosingSelect(stack, recv)
		if sel == nil {
			pass.Reportf(recv.Pos(), "blocking receive with no abort arm; a failed sender strands this goroutine — select on an abort/ctx.Done channel alongside it")
			return
		}
		_ = comm
		if !selectHasAbortArm(pass, sel) {
			pass.Reportf(recv.Pos(), "select has no abort/ctx.Done arm; a failed sender strands every case — add one (see core's receive)")
		}
	})
}

// enclosingSelect returns the select statement whose comm clause contains
// the receive as its communication operation, or nil for a naked receive.
// A receive in a case *body* is naked: the select already fired.
func enclosingSelect(stack []ast.Node, recv *ast.UnaryExpr) (*ast.SelectStmt, *ast.CommClause) {
	for i := len(stack) - 1; i >= 0; i-- {
		comm, ok := stack[i].(*ast.CommClause)
		if !ok {
			continue
		}
		if comm.Comm != nil && recv.Pos() >= comm.Comm.Pos() && recv.End() <= comm.Comm.End() {
			if i > 0 {
				if sel, ok := stack[i-2].(*ast.SelectStmt); ok {
					return sel, comm
				}
				// stack shape: ... SelectStmt BlockStmt CommClause; be
				// permissive about intermediate nodes.
				for j := i - 1; j >= 0; j-- {
					if sel, ok := stack[j].(*ast.SelectStmt); ok {
						return sel, comm
					}
				}
			}
		}
		return nil, nil
	}
	return nil, nil
}

// selectHasAbortArm reports whether any clause is a default or communicates
// over an abort-class channel.
func selectHasAbortArm(pass *analysis.Pass, sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		comm, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if comm.Comm == nil {
			return true // default: the select cannot block
		}
		var ch ast.Expr
		switch s := comm.Comm.(type) {
		case *ast.ExprStmt:
			if u, ok := ast.Unparen(s.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				ch = u.X
			}
		case *ast.AssignStmt:
			if len(s.Rhs) == 1 {
				if u, ok := ast.Unparen(s.Rhs[0]).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					ch = u.X
				}
			}
		}
		if ch != nil && isAbortChan(pass, ch) {
			return true
		}
	}
	return false
}

// abortNames are the lexical markers of teardown channels.
var abortNames = []string{"stop", "done", "abort", "gone", "quit", "cancel"}

// isAbortChan reports whether a channel expression is abort-class: a call
// to a method named Done (ctx.Done()), or an identifier/selector whose
// final name carries an abort marker.
func isAbortChan(pass *analysis.Pass, ch ast.Expr) bool {
	switch e := ast.Unparen(ch).(type) {
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" && len(e.Args) == 0 {
			return true
		}
	case *ast.Ident:
		return nameIsAbort(e.Name)
	case *ast.SelectorExpr:
		return nameIsAbort(e.Sel.Name)
	}
	return false
}

func nameIsAbort(name string) bool {
	l := strings.ToLower(name)
	for _, m := range abortNames {
		if strings.Contains(l, m) {
			return true
		}
	}
	return false
}

// inspectShallow walks without entering nested function literals.
func inspectShallow(body *ast.BlockStmt, fn func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}
