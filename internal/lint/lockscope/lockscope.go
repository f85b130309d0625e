// Package lockscope enforces two concurrency disciplines that the A/B
// serving layers (intern, server) depend on:
//
//  1. No sync primitive is copied by value. A copied sync.Mutex is a fork of
//     the lock state: both copies "work" under the race detector until the
//     moment two goroutines serialize on different forks. The lookup paths
//     in intern hand shared state between goroutines, which is exactly where
//     an accidental by-value entry or LRU copy would slip through. Flagged:
//     parameters, results, and plain copies (x := y, range values) whose
//     type transitively contains a sync primitive.
//
//  2. No lock is held across a blocking channel operation. A mutex held
//     across a send, receive, select, or sync Wait couples the lock's
//     critical section to another goroutine's progress — the classic shape
//     of the server drain deadlock (worker blocked sending on a queue the
//     drainer closed while holding the same lock the drainer wants). The
//     scan is a conservative statement walk: between recv.Lock()/RLock()
//     and the matching Unlock on the same receiver expression, any channel
//     operation in the same function is reported. `go` statements and
//     closure bodies are separate goroutine roots and are scanned
//     independently with an empty lock set.
//
// The one sanctioned violation is internal/server's send-vs-close protocol,
// which deliberately holds an RLock across a non-blocking send so Shutdown
// can take the write lock and know no send is in flight; it carries an
// inline `//schedlint:allow lockscope -- <reason>` recording that argument.
package lockscope

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"emts/internal/lint/analysis"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "lockscope",
	Doc:  "lockscope: flag sync types copied by value and locks held across channel operations",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkSignature(pass, fn)
			checkCopies(pass, fn.Body)
			checkHeld(pass, fn.Body)
			// Closures and go bodies are separate goroutine roots: scan each
			// with a fresh (empty) lock set.
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkHeld(pass, lit.Body)
				}
				return true
			})
		}
	}
	return nil, nil
}

// --- rule 1: sync types copied by value -----------------------------------

func checkSignature(pass *analysis.Pass, fn *ast.FuncDecl) {
	if fn.Recv != nil {
		for _, f := range fn.Recv.List {
			flagLockField(pass, f, "receiver")
		}
	}
	for _, f := range fn.Type.Params.List {
		flagLockField(pass, f, "parameter")
	}
	if fn.Type.Results != nil {
		for _, f := range fn.Type.Results.List {
			flagLockField(pass, f, "result")
		}
	}
}

func flagLockField(pass *analysis.Pass, f *ast.Field, kind string) {
	t := pass.TypeOf(f.Type)
	if t == nil || !containsLock(t, nil) {
		return
	}
	pass.Reportf(f.Type.Pos(), "%s passes %s by value, copying the lock it contains; use a pointer", kind, lockName(t))
}

// checkCopies flags plain value copies of lock-containing types: x := y,
// x = y, var x = y, and range value variables. Fresh values (composite
// literals, zero-value declarations, call results) are fine — they have no
// lock state to fork yet.
func checkCopies(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range s.Rhs {
				// `_ = x` discards the value: nothing retains the copy.
				if len(s.Lhs) == len(s.Rhs) && isBlank(s.Lhs[i]) {
					continue
				}
				flagCopyExpr(pass, rhs)
			}
		case *ast.ValueSpec:
			for i, v := range s.Values {
				if len(s.Names) == len(s.Values) && s.Names[i].Name == "_" {
					continue
				}
				flagCopyExpr(pass, v)
			}
		case *ast.RangeStmt:
			if s.Value == nil {
				return true
			}
			t := pass.TypeOf(s.Value)
			if t != nil && containsLock(t, nil) {
				pass.Reportf(s.Value.Pos(), "range copies %s by value, forking its lock state; iterate by index or over pointers", lockName(t))
			}
		}
		return true
	})
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// flagCopyExpr reports the expression when it reads an existing value of a
// lock-containing type (ident, field, index, deref). Literals, calls, and
// conversions produce fresh values and are skipped.
func flagCopyExpr(pass *analysis.Pass, e ast.Expr) {
	switch ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return
	}
	t := pass.TypeOf(e)
	if t == nil || !containsLock(t, nil) {
		return
	}
	pass.Reportf(e.Pos(), "copies %s by value, forking its lock state; share it through a pointer", lockName(t))
}

// lockPrimitives are the by-value-unsafe sync types.
var lockPrimitives = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true,
	"Cond": true, "Once": true, "Pool": true, "Map": true,
}

// containsLock reports whether t transitively holds a sync primitive by
// value. Pointers, slices, maps, and channels stop the recursion: they share
// rather than copy.
func containsLock(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && lockPrimitives[obj.Name()] {
			return true
		}
	}
	if seen == nil {
		seen = make(map[types.Type]bool)
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLock(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLock(u.Elem(), seen)
	}
	return false
}

// lockName renders the offending type for the diagnostic.
func lockName(t types.Type) string {
	return t.String()
}

// --- rule 2: locks held across channel operations -------------------------

// checkHeld walks the statement list tracking which lock receivers are
// held, and reports channel operations encountered while any lock is. The
// held set is passed by copy into nested blocks, so sibling branches do not
// contaminate each other; a lock acquired inside a branch is (conservatively)
// considered released when the branch ends unless the branch reports first.
func checkHeld(pass *analysis.Pass, body *ast.BlockStmt) {
	walkStmts(pass, body.List, make(map[string]bool))
}

func walkStmts(pass *analysis.Pass, stmts []ast.Stmt, held map[string]bool) {
	for _, s := range stmts {
		walkStmt(pass, s, held)
	}
}

func walkStmt(pass *analysis.Pass, s ast.Stmt, held map[string]bool) {
	switch st := s.(type) {
	case *ast.GoStmt:
		return // new goroutine root, scanned separately
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to function end — the
		// common idiom — so it does not release here. A deferred Lock
		// would be bizarre; ignore it.
		return
	case *ast.BlockStmt:
		walkStmts(pass, st.List, copyHeld(held))
		return
	case *ast.IfStmt:
		if st.Init != nil {
			walkStmt(pass, st.Init, held)
		}
		checkExprOps(pass, st.Cond, held)
		walkStmts(pass, st.Body.List, copyHeld(held))
		if st.Else != nil {
			walkStmt(pass, st.Else, copyHeld(held))
		}
		return
	case *ast.ForStmt:
		if st.Init != nil {
			walkStmt(pass, st.Init, held)
		}
		if st.Cond != nil {
			checkExprOps(pass, st.Cond, held)
		}
		walkStmts(pass, st.Body.List, copyHeld(held))
		return
	case *ast.RangeStmt:
		checkExprOps(pass, st.X, held)
		walkStmts(pass, st.Body.List, copyHeld(held))
		return
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if cc, ok := n.(*ast.CaseClause); ok {
				walkStmts(pass, cc.Body, copyHeld(held))
				return false
			}
			return true
		})
		return
	case *ast.SelectStmt:
		if anyHeld(held) {
			pass.Reportf(st.Pos(), "select while holding %s; a blocked case couples the critical section to another goroutine", heldNames(held))
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				walkStmts(pass, cc.Body, copyHeld(held))
			}
		}
		return
	case *ast.SendStmt:
		if anyHeld(held) {
			pass.Reportf(st.Pos(), "channel send while holding %s; the send can block with the lock held", heldNames(held))
		}
		return
	}

	// Generic statement: look for lock transitions and channel ops in
	// expression position, in source order.
	checkExprOps(pass, s, held)
	applyLockCalls(pass, s, held)
}

// checkExprOps reports channel receives and sync waits inside the node while
// a lock is held, and recurses into nothing that starts a new root.
func checkExprOps(pass *analysis.Pass, n ast.Node, held map[string]bool) {
	if !anyHeld(held) {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch e := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if e.Op.String() == "<-" {
				pass.Reportf(e.Pos(), "channel receive while holding %s; the receive can block with the lock held", heldNames(held))
			}
		case *ast.CallExpr:
			if fn := pass.CalleeFunc(e); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync" && fn.Name() == "Wait" {
				pass.Reportf(e.Pos(), "sync %s.Wait while holding %s; waiting couples the critical section to other goroutines", recvString(e), heldNames(held))
			}
		}
		return true
	})
}

// applyLockCalls updates the held set for Lock/RLock/Unlock/RUnlock calls on
// sync receivers found in the statement.
func applyLockCalls(pass *analysis.Pass, s ast.Stmt, held map[string]bool) {
	ast.Inspect(s, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := pass.CalleeFunc(call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
			return true
		}
		key := recvString(call)
		switch fn.Name() {
		case "Lock", "RLock":
			held[key] = true
		case "Unlock", "RUnlock":
			delete(held, key)
		}
		return true
	})
}

// recvString renders the receiver expression of a method call as the held-set
// key ("s.mu", "p.shards[i].mu").
func recvString(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "lock"
	}
	return types.ExprString(sel.X)
}

func copyHeld(held map[string]bool) map[string]bool {
	c := make(map[string]bool, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

func anyHeld(held map[string]bool) bool { return len(held) > 0 }

func heldNames(held map[string]bool) string {
	names := make([]string, 0, len(held))
	for k := range held {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
