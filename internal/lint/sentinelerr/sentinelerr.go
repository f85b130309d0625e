// Package sentinelerr enforces the sentinel-error discipline on hot paths.
//
// The admission pipeline distinguishes rejection causes by error identity:
// schedule.ErrRejected is the umbrella sentinel and ErrRejectedPrefilter is
// a package-level `fmt.Errorf("%w ...")` wrap of it, so callers split the
// two with errors.Is while the fast path stays allocation-free — both values
// are constructed once, at package init. That contract breaks quietly if a
// hot function ever constructs an error per call (fmt.Errorf allocates and
// yields a fresh identity every time) or compares errors by message text
// (which ignores wrapping entirely). In `//schedlint:hotpath` functions this
// analyzer therefore flags:
//
//   - fmt.Errorf / errors.New / errors.Join calls — per-call construction;
//     predeclare the sentinel (or the %w wrap) at package level instead;
//   - comparing err.Error() text with == or != — identity by message
//     defeats errors.Is and the %w chain;
//   - == / != between two error values when neither side is nil or a
//     package-level sentinel — comparing two transient errors is identity
//     roulette; compare against a sentinel, or use errors.Is for wraps.
//
// Cold error paths inside a hot function that genuinely need formatting
// carry `//schedlint:allow sentinelerr -- <reason>`, same as every analyzer.
package sentinelerr

import (
	"go/ast"
	"go/token"
	"go/types"

	"emts/internal/lint/analysis"
	"emts/internal/lint/hotmark"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "sentinelerr",
	Doc:  "sentinelerr: hot paths must use predeclared error sentinels, compared by identity or errors.Is",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		for _, fn := range hotmark.Funcs(f) {
			checkFunc(pass, fn)
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	name := fn.Name.Name
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			return false // closures are not the hot loop
		case *ast.CallExpr:
			if ctor := errorCtor(pass, e); ctor != "" {
				pass.Reportf(e.Pos(),
					"hot path %s: %s constructs an error per call; predeclare a package-level sentinel and return it", name, ctor)
			}
		case *ast.BinaryExpr:
			checkCompare(pass, e, name)
		}
		return true
	})
}

// errorCtor returns the printable name of a per-call error constructor, or "".
func errorCtor(pass *analysis.Pass, call *ast.CallExpr) string {
	for _, c := range [...]struct{ pkg, fn string }{
		{"fmt", "Errorf"},
		{"errors", "New"},
		{"errors", "Join"},
	} {
		if pass.IsPkgFunc(call, c.pkg, c.fn) {
			return c.pkg + "." + c.fn
		}
	}
	return ""
}

func checkCompare(pass *analysis.Pass, e *ast.BinaryExpr, name string) {
	if e.Op != token.EQL && e.Op != token.NEQ {
		return
	}
	// err.Error() == "..." — message-text identity.
	if isErrorTextCall(pass, e.X) || isErrorTextCall(pass, e.Y) {
		pass.Reportf(e.Pos(),
			"hot path %s: comparing err.Error() text; compare sentinels with == or errors.Is instead", name)
		return
	}
	// error == error where neither side is nil or a package-level sentinel.
	if !isErrorExpr(pass, e.X) || !isErrorExpr(pass, e.Y) {
		return
	}
	if isNil(pass, e.X) || isNil(pass, e.Y) {
		return
	}
	if isSentinel(pass, e.X) || isSentinel(pass, e.Y) {
		return
	}
	pass.Reportf(e.Pos(),
		"hot path %s: comparing two non-sentinel errors; compare against a package-level sentinel (or errors.Is for wrapped ones)", name)
}

// isErrorTextCall matches a call of the error interface's Error method.
func isErrorTextCall(pass *analysis.Pass, x ast.Expr) bool {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" {
		return false
	}
	return isErrorType(pass.TypeOf(sel.X))
}

func isErrorExpr(pass *analysis.Pass, x ast.Expr) bool {
	return isErrorType(pass.TypeOf(x))
}

func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	it, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	return it.NumMethods() == 1 && it.Method(0).Name() == "Error"
}

func isNil(pass *analysis.Pass, x ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[ast.Unparen(x)]
	return ok && tv.IsNil()
}

// isSentinel reports whether the expression names a package-level error
// variable — the one construction site the discipline sanctions.
func isSentinel(pass *analysis.Pass, x ast.Expr) bool {
	var id *ast.Ident
	switch e := ast.Unparen(x).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return false
	}
	v, ok := pass.ObjectOf(id).(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}
