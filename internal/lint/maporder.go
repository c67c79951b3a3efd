package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Maporder flags `range` over a map whose body performs an
// iteration-order-sensitive side effect — a channel send, an append to a
// slice that outlives the loop, or a call into the event/packet layer
// (Schedule, SendFrom, SendTrain, sink writes). Go randomises map iteration order per
// run, so any such loop produces a different event or output order on
// every execution: exactly the bug class the engine's canonical delivery
// ordering exists to mask, and the one a determinism matrix only catches
// probabilistically after the fact.
//
// The blessed idiom — collect the keys, sort them, range the slice — is
// recognised: an append-accumulated key slice that is passed to a
// sort/slices call later in the same function is not reported. Pure
// accumulation (summing values, building another map) commutes and is
// always fine.
var Maporder = &Analyzer{
	Name: "maporder",
	Doc: "flag map iteration whose body has an order-sensitive side effect " +
		"without sorting the keys first",
	Run: runMaporder,
}

// orderSensitiveCalls name the callees whose invocation order is
// observable: event scheduling, packet emission, and stream output.
var orderSensitiveCalls = map[string]bool{
	"Schedule": true, "ScheduleAt": true,
	"SendFrom": true, "SendAt": true, "Send": true, "SendTrain": true, "Deliver": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Fprintf": true, "Fprintln": true, "Fprint": true,
	"Printf": true, "Println": true, "Print": true,
}

// sortCalls name the functions that establish a canonical order over a
// collected key slice (package sort and package slices entry points).
var sortCalls = map[string]bool{
	"Sort": true, "Stable": true, "Strings": true, "Ints": true,
	"Float64s": true, "Slice": true, "SliceStable": true,
	"SortFunc": true, "SortStableFunc": true, "Sorted": true,
}

func runMaporder(pass *Pass) error {
	if !IsDeterministicPkg(pass.ImportPath) {
		return nil
	}
	for _, f := range pass.Files {
		// Examine each function body independently so the sorted-keys
		// recognition can look downstream of the loop.
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				body = n.Body
			case *ast.FuncLit:
				body = n.Body
			}
			if body != nil {
				checkFuncBody(pass, body)
			}
			return true
		})
	}
	return nil
}

func checkFuncBody(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			// Nested function literals get their own checkFuncBody visit
			// from runMaporder's walk; don't double-report their loops.
			return false
		}
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.Info.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if effect, escapes := rangeSideEffects(pass, rs); effect != "" {
			pass.Reportf(rs.For, "iteration over map %s with order-sensitive side effect (%s); collect and sort the keys first, or annotate why the order cannot be observed", exprString(rs.X), effect)
		} else if len(escapes) > 0 {
			// Appends into outer slices: fine iff every such slice is
			// sorted after the loop (the canonical sorted-keys idiom).
			for _, obj := range escapes {
				if !sortedAfter(pass, body, obj, rs.End()) {
					pass.Reportf(rs.For, "iteration over map %s appends to %q, which escapes the loop in map order; sort %q afterwards (or collect and sort the keys first)", exprString(rs.X), obj.Name(), obj.Name())
					break
				}
			}
		}
		return true
	})
}

// rangeSideEffects scans a range body. It returns a description of the
// first hard side effect (send / order-sensitive call), and the set of
// outer-scope slice variables the body appends to — reported separately so
// the sort-after-loop idiom can clear them.
func rangeSideEffects(pass *Pass, rs *ast.RangeStmt) (effect string, escapes []types.Object) {
	seen := map[types.Object]bool{}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if effect != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			effect = "channel send"
			return false
		case *ast.CallExpr:
			if name := calleeName(n); orderSensitiveCalls[name] {
				effect = "call to " + name
				return false
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass, call) || i >= len(n.Lhs) {
					continue
				}
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.Info.ObjectOf(id)
				if obj == nil || seen[obj] {
					continue
				}
				// Declared outside the loop → the element order is
				// observable after the loop ends.
				if obj.Pos() < rs.Pos() || obj.Pos() > rs.End() {
					seen[obj] = true
					escapes = append(escapes, obj)
				}
			}
		}
		return true
	})
	return effect, escapes
}

// sortedAfter reports whether obj is passed to a sort call (or a Sort
// method) somewhere in body after pos.
func sortedAfter(pass *Pass, body *ast.BlockStmt, obj types.Object, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || !sortCalls[calleeName(call)] {
			return true
		}
		for _, arg := range call.Args {
			if mentionsObject(pass, arg, obj) {
				found = true
				return false
			}
		}
		// Method form: keys.Sort().
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && mentionsObject(pass, sel.X, obj) {
			found = true
			return false
		}
		return true
	})
	return found
}

func mentionsObject(pass *Pass, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.Info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// calleeName returns the bare name of a call's callee (method or function),
// or "" when it has no identifier form.
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	}
	return "expression"
}
