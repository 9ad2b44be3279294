// Package protocol implements the `protocol` analyzer: the netsim wire
// protocol requires every MsgRows stream to be terminated by MsgEOS (or
// aborted with MsgError) so receivers counting end-of-stream markers never
// hang, and it requires Send/Close errors to be observed, because a lost
// send silently breaks that accounting. Three shapes are flagged:
//
//  1. A netsim Send or Bus Close call whose error is discarded: a call in
//     statement position, or one assigned to the blank identifier alone
//     (deferred Close is tolerated as last-resort cleanup).
//  2. A function that sends MsgRows but can reach no MsgEOS/MsgError send:
//     neither the function itself, nor another method on the same receiver
//     type (the batcher pattern: flush sends rows, Close sends EOS), nor a
//     deferred Close in the function terminates the stream.
//  3. A receive loop that Routes MsgRows without Routing MsgError in the
//     same function: such a loop counts EOS markers a failed sender will
//     never produce, so a mid-query abort deadlocks it instead of
//     surfacing as an error.
package protocol

import (
	"go/ast"

	"hybridwh/internal/lint/analysis"
	"hybridwh/internal/lint/astwalk"
)

// Analyzer is the protocol analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "protocol",
	Doc:  "flag ignored netsim Send/Close errors and MsgRows streams with no reachable MsgEOS/MsgError",
	Run:  run,
}

const netsimPkg = "internal/netsim"

// funcFacts summarises one function's protocol behaviour.
type funcFacts struct {
	decl        *ast.FuncDecl
	rowsSends   []ast.Node // netsim Send calls whose args mention MsgRows
	sendsEnd    bool       // a Send call mentions MsgEOS or MsgError
	deferClose  bool       // a deferred call to a method named Close
	rowsRoutes  []ast.Node // netsim Route calls whose args mention MsgRows
	routesError bool       // a Route call mentions MsgError
}

func run(pass *analysis.Pass) (interface{}, error) {
	// byRecv groups functions by receiver type name, so a method that only
	// streams rows is cleared by a sibling (e.g. Close) that ends the
	// stream.
	byRecv := map[string][]*funcFacts{}
	var all []*funcFacts

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			facts := gather(pass, fd)
			all = append(all, facts)
			if name := recvTypeName(fd); name != "" {
				byRecv[name] = append(byRecv[name], facts)
			}
		}
	}

	for _, facts := range all {
		if len(facts.rowsSends) == 0 || facts.sendsEnd || facts.deferClose {
			continue
		}
		cleared := false
		if name := recvTypeName(facts.decl); name != "" {
			for _, sibling := range byRecv[name] {
				if sibling.sendsEnd {
					cleared = true
					break
				}
			}
		}
		if cleared {
			continue
		}
		for _, send := range facts.rowsSends {
			pass.Reportf(send.Pos(), "MsgRows sent with no reachable MsgEOS/MsgError in %s, its receiver's methods, or a deferred Close; receivers counting EOS will hang", funcName(facts.decl))
		}
	}

	// Rule 4: routing is set up where the receive loop lives, so the
	// MsgError route must appear in the same function as the MsgRows route.
	for _, facts := range all {
		if len(facts.rowsRoutes) == 0 || facts.routesError {
			continue
		}
		for _, rt := range facts.rowsRoutes {
			pass.Reportf(rt.Pos(), "MsgRows routed without MsgError in %s; an aborted sender's MsgError would go unhandled and the loop would wait for EOS forever", funcName(facts.decl))
		}
	}
	return nil, nil
}

// gather walks one function, reporting ignored Send/Close errors inline and
// collecting stream-termination facts.
func gather(pass *analysis.Pass, fd *ast.FuncDecl) *funcFacts {
	facts := &funcFacts{decl: fd}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt, *ast.AssignStmt:
			switch call := discardedCall(n); {
			case call == nil:
			case isNetsimMethod(pass, call, "Send"):
				pass.Reportf(n.Pos(), "netsim Send error ignored; a lost send breaks EOS accounting")
			case isNetsimMethod(pass, call, "Close"):
				pass.Reportf(n.Pos(), "netsim Close error ignored; handle it or defer the Close")
			}
		case *ast.DeferStmt:
			if sel, ok := ast.Unparen(n.Call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Close" {
				facts.deferClose = true
			}
			// A deferred closure that closes something counts too; its Send
			// calls are recorded by the enclosing walk.
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(dn ast.Node) bool {
					if call, ok := dn.(*ast.CallExpr); ok {
						if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Close" {
							facts.deferClose = true
						}
					}
					return true
				})
			}
		case *ast.CallExpr:
			recordSend(pass, n, facts)
			recordRoute(pass, n, facts)
		}
		return true
	})
	return facts
}

// discardedCall returns the call whose results stmt discards — a call in
// statement position, or one assigned to the blank identifier alone — or nil.
func discardedCall(stmt ast.Node) *ast.CallExpr {
	x := ast.Expr(nil)
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		x = s.X
	case *ast.AssignStmt:
		if id, ok := s.Lhs[0].(*ast.Ident); ok && id.Name == "_" && len(s.Lhs) == 1 && len(s.Rhs) == 1 {
			x = s.Rhs[0]
		}
	}
	call, _ := ast.Unparen(x).(*ast.CallExpr)
	return call
}

// recordSend notes which protocol message constants a netsim Send call
// mentions.
func recordSend(pass *analysis.Pass, call *ast.CallExpr, facts *funcFacts) {
	if !isNetsimMethod(pass, call, "Send") {
		return
	}
	rows, end := false, false
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil || !astwalk.FromPkg(obj, netsimPkg) {
				return true
			}
			switch obj.Name() {
			case "MsgRows":
				rows = true
			case "MsgEOS", "MsgError":
				end = true
			}
			return true
		})
	}
	if rows {
		facts.rowsSends = append(facts.rowsSends, call)
	}
	if end {
		facts.sendsEnd = true
	}
}

// recordRoute notes which protocol message constants a Router.Route call
// subscribes to.
func recordRoute(pass *analysis.Pass, call *ast.CallExpr, facts *funcFacts) {
	if !isNetsimMethod(pass, call, "Route") {
		return
	}
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil || !astwalk.FromPkg(obj, netsimPkg) {
				return true
			}
			switch obj.Name() {
			case "MsgRows":
				facts.rowsRoutes = append(facts.rowsRoutes, call)
			case "MsgError":
				facts.routesError = true
			}
			return true
		})
	}
}

// isNetsimMethod reports whether call invokes a method of the given name
// declared in the netsim package (on the Bus interface or a transport).
func isNetsimMethod(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	obj := astwalk.SelectedObject(pass.TypesInfo, sel)
	return obj != nil && astwalk.FromPkg(obj, netsimPkg)
}

func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch t := t.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr: // generic receiver
		if id, ok := t.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}

func funcName(fd *ast.FuncDecl) string {
	if name := recvTypeName(fd); name != "" {
		return name + "." + fd.Name.Name
	}
	return fd.Name.Name
}
