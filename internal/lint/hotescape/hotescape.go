// Package hotescape checks `//schedlint:hotpath` functions against the gc
// compiler's own escape-analysis and inlining verdicts.
//
// hotalloc (PR 2) flags the syntactic constructs that allocate — fmt calls,
// interface boxing, capturing closures, capacity-less appends — but the
// compiler is the ground truth: escape analysis decides what actually reaches
// the heap, and it sees through patterns no syntactic rule can (a value
// escaping via a leaked parameter, a make the caller's inliner fails to
// stack-allocate). This analyzer consumes the `go build -gcflags=-m`
// diagnostics the driver collects (package gcdiag) and reports, for every
// hotpath function:
//
//   - any "escapes to heap" / "moved to heap" verdict inside the function
//     body — each one is a per-call heap allocation on the paper's fitness
//     path;
//   - same-package static callees the compiler failed to inline, beyond a
//     configured budget — a non-inlined callee hides its allocations from
//     the caller's escape analysis and adds call overhead on the hot loop.
//
// Two escape hatches keep the signal clean. Escape diagnostics attributed to
// a call of a sanctioned grow helper (conf: `set hotescape.grow-helpers
// grow,...`) are skipped: amortized arena doubling allocates by
// design, on the cold first-growth path only. And any remaining cold-path
// escape (error capture, once-per-shape setup) carries an inline
// `//schedlint:allow hotescape -- <reason>` like every other analyzer.
//
// The inline budget exempts callees that are themselves hotpath-marked (they
// are checked in their own right) and everything outside the package
// (stdlib and cross-package calls are API boundaries, not hidden cost).
package hotescape

import (
	"go/ast"
	"go/token"
	"sort"
	"strconv"
	"strings"

	"emts/internal/lint/analysis"
	"emts/internal/lint/hotmark"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name:         "hotescape",
	Doc:          "hotescape: fail //schedlint:hotpath functions with compiler-verified heap escapes or over-budget non-inlined callees",
	Run:          run,
	NeedsGCDiags: true,
}

const (
	// inlinePrefix introduces the compiler's inlining verdicts.
	inlinePrefix = "inlining call to "
	// Default inline budget: every same-package non-hotpath callee must
	// inline. Raise per-repo with `set hotescape.inline-budget N`.
	defaultBudget = 0
)

func run(pass *analysis.Pass) (interface{}, error) {
	if len(pass.GCDiags) == 0 {
		return nil, nil // driver supplied no compiler facts (test variant)
	}
	budget := defaultBudget
	if v := pass.Setting("hotescape.inline-budget", ""); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			budget = n
		}
	}
	helpers := make(map[string]bool)
	for _, h := range strings.Split(pass.Setting("hotescape.grow-helpers", ""), ",") {
		if h = strings.TrimSpace(h); h != "" {
			helpers[h] = true
		}
	}

	// Index diagnostics by file for span lookups, and pre-split the inline
	// verdicts: an escape attributed to the same position as `inlining call
	// to <helper>` came from the helper's inlined body.
	byFile := make(map[string][]analysis.GCDiag)
	inlined := make(map[posKey][]string) // position -> inlined callee names
	for _, d := range pass.GCDiags {
		byFile[d.File] = append(byFile[d.File], d)
		if name, ok := strings.CutPrefix(d.Message, inlinePrefix); ok {
			k := posKey{d.File, d.Line, d.Col}
			inlined[k] = append(inlined[k], name)
		}
	}

	hot := hotpathFuncs(pass)
	for _, f := range pass.Files {
		tf := pass.Fset.File(f.Pos())
		if tf == nil {
			continue
		}
		diags := byFile[tf.Name()]
		for _, fn := range hotmark.Funcs(f) {
			checkEscapes(pass, fn, tf, diags, inlined, helpers)
			checkInlining(pass, fn, tf, diags, hot, helpers, budget)
		}
	}
	return nil, nil
}

type posKey struct {
	file      string
	line, col int
}

// checkEscapes reports every compiler escape verdict inside the function's
// line span, except those attributed to a sanctioned grow helper's inlined
// body.
func checkEscapes(pass *analysis.Pass, fn *ast.FuncDecl, tf *token.File, diags []analysis.GCDiag, inlined map[posKey][]string, helpers map[string]bool) {
	lo := tf.Line(fn.Body.Pos())
	hi := tf.Line(fn.Body.End())
	for _, d := range diags {
		if d.Line < lo || d.Line > hi || !isEscape(d.Message) {
			continue
		}
		if fromGrowHelper(inlined[posKey{d.File, d.Line, d.Col}], helpers) {
			continue
		}
		pos := pass.PosFor(d.File, d.Line, d.Col)
		if pos == token.NoPos {
			pos = fn.Pos()
		}
		pass.Reportf(pos, "hot path %s: compiler reports %q; heap allocation on the fitness path", fn.Name.Name, d.Message)
	}
}

// isEscape matches the allocation verdicts. "does not escape" and "leaking
// param" lines are informational, not allocations in this function.
func isEscape(msg string) bool {
	return strings.Contains(msg, "escapes to heap") || strings.HasPrefix(msg, "moved to heap")
}

// fromGrowHelper reports whether one of the callees inlined at this position
// is a sanctioned grow helper (generic helpers report as `grow[go.shape.X]`).
func fromGrowHelper(names []string, helpers map[string]bool) bool {
	for _, n := range names {
		base := n
		if i := strings.IndexByte(base, '['); i >= 0 {
			base = base[:i]
		}
		if i := strings.LastIndexByte(base, '.'); i >= 0 {
			base = base[i+1:]
		}
		base = strings.TrimSuffix(base, ")") // defensive: (*T).m never ends here, but be safe
		if helpers[base] {
			return true
		}
	}
	return false
}

// checkInlining counts same-package static callees the compiler did not
// inline and reports the function once when the count exceeds the budget.
func checkInlining(pass *analysis.Pass, fn *ast.FuncDecl, tf *token.File, diags []analysis.GCDiag, hot, helpers map[string]bool, budget int) {
	// Inline verdicts within the function, by line: a call at line L is
	// inlined iff some `inlining call to <name>` diag sits on line L naming
	// the callee.
	inlinedAt := make(map[int][]string)
	lo := tf.Line(fn.Body.Pos())
	hi := tf.Line(fn.Body.End())
	for _, d := range diags {
		if d.Line < lo || d.Line > hi {
			continue
		}
		if name, ok := strings.CutPrefix(d.Message, inlinePrefix); ok {
			inlinedAt[d.Line] = append(inlinedAt[d.Line], name)
		}
	}

	type miss struct {
		pos  token.Pos
		name string
	}
	var misses []miss
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // closure bodies are not this function's hot loop
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := pass.CalleeFunc(call)
		if callee == nil || callee.Pkg() == nil || callee.Pkg() != pass.Pkg {
			return true // dynamic, builtin, or cross-package: out of scope
		}
		if hot[callee.Name()] || helpers[callee.Name()] {
			return true // hotpath callees are verified independently;
			// grow helpers allocate by design on the cold growth path
		}
		line := tf.Line(call.Pos())
		if calleeInlined(inlinedAt[line], callee.Name()) {
			return true
		}
		misses = append(misses, miss{call.Pos(), callee.Name()})
		return true
	})
	if len(misses) <= budget {
		return
	}
	names := make([]string, 0, len(misses))
	for _, m := range misses {
		names = append(names, m.name)
	}
	sort.Strings(names)
	pass.Reportf(misses[0].pos,
		"hot path %s: %d same-package call(s) not inlined (budget %d): %s; mark the callee //schedlint:hotpath, shrink it below the inliner's cost threshold, or raise hotescape.inline-budget",
		fn.Name.Name, len(misses), budget, strings.Join(names, ", "))
}

// calleeInlined reports whether an inline verdict on the call's line names
// the callee. Verdict spellings: `F`, `F[go.shape.int]`, `(*T).m`, `T.m`.
func calleeInlined(verdicts []string, name string) bool {
	for _, v := range verdicts {
		if i := strings.IndexByte(v, '['); i >= 0 {
			v = v[:i]
		}
		if v == name || strings.HasSuffix(v, "."+name) || strings.HasSuffix(v, ")."+name) {
			return true
		}
	}
	return false
}

// hotpathFuncs collects the names of every hotpath-marked function in the
// package, across all its files, for the inline-budget exemption.
func hotpathFuncs(pass *analysis.Pass) map[string]bool {
	hot := make(map[string]bool)
	for _, f := range pass.Files {
		for _, fn := range hotmark.Funcs(f) {
			hot[fn.Name.Name] = true
		}
	}
	return hot
}
