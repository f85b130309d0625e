// Package abswitch enforces A/B-coverage of the repository's ablation
// switches: every `Disable*` config field must be exercised by at least one
// determinism test.
//
// The perf layers ship behind paired switches (core.Params.DisablePrefilter,
// server.Config.DisableGovernor, ...) precisely so
// tests can assert the paper-facing property: each optimization changes
// nothing but speed, bit for bit. That methodology argument only holds while
// every switch actually appears in such a test — an optimization added with
// a switch but no on/off comparison is unverified, and a switch silently
// dropped from a test during a refactor is a coverage hole no human diff
// review reliably catches.
//
// The analyzer inventories bool struct fields matching the switch pattern
// (default `^Disable`) in the package under analysis, then checks each one
// is referenced by name inside a determinism-flavored test function —
// Test/Benchmark/Fuzz functions whose names match the test pattern (default
// case-insensitive `determin|identical|identity|bitident|lattice`) —
// anywhere in the module's *_test.go files. Because the driver never loads
// test files, the analyzer builds that index itself, syntactically, once per
// module root, skipping testdata and hidden directories.
//
// Conf knobs: `set abswitch.field-pattern <re>` widens the switch inventory,
// `set abswitch.test-pattern <re>` the recognized test names, and
// `set abswitch.index-root <dir>` pins the tree to index (fixtures use it;
// the default walks up from the package directory to the enclosing go.mod).
package abswitch

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"

	"emts/internal/lint/analysis"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "abswitch",
	Doc:  "abswitch: every Disable* A/B switch must be referenced by a determinism test",
	Run:  run,
}

const (
	defaultFieldPattern = `^Disable`
	defaultTestPattern  = `(?i)determin|identical|identity|bitident|lattice`
)

func run(pass *analysis.Pass) (interface{}, error) {
	fieldRE, err := regexp.Compile(pass.Setting("abswitch.field-pattern", defaultFieldPattern))
	if err != nil {
		return nil, err
	}
	switches := inventory(pass, fieldRE)
	if len(switches) == 0 {
		return nil, nil
	}

	testRE, err := regexp.Compile(pass.Setting("abswitch.test-pattern", defaultTestPattern))
	if err != nil {
		return nil, err
	}
	root := indexRoot(pass)
	if root == "" {
		return nil, nil // no module root: nothing to index against
	}
	covered := coveredNames(root, testRE)
	for _, sw := range switches {
		if covered[sw.name] {
			continue
		}
		pass.Reportf(sw.pos,
			"A/B switch %s.%s is not referenced by any determinism test (name matching %q); add an on/off bit-identity test or retire the switch",
			sw.owner, sw.name, testRE.String())
	}
	return nil, nil
}

type switchField struct {
	owner string // declaring struct type
	name  string
	pos   token.Pos
}

// inventory collects the package's bool struct fields matching the switch
// pattern. Test files never declare production switches and are excluded
// (the vet protocol hands the analyzer test variants too).
func inventory(pass *analysis.Pass, fieldRE *regexp.Regexp) []switchField {
	var out []switchField
	for _, f := range pass.Files {
		tf := pass.Fset.File(f.Pos())
		if tf != nil && strings.HasSuffix(tf.Name(), "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					if !isBool(pass, field.Type) {
						continue
					}
					for _, nm := range field.Names {
						if fieldRE.MatchString(nm.Name) {
							out = append(out, switchField{owner: ts.Name.Name, name: nm.Name, pos: nm.Pos()})
						}
					}
				}
			}
		}
	}
	return out
}

func isBool(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Bool
}

// indexRoot resolves the directory whose *_test.go files form the coverage
// universe: the abswitch.index-root setting (absolute or relative to the
// package dir), else the nearest ancestor of the package dir with a go.mod.
func indexRoot(pass *analysis.Pass) string {
	if r := pass.Setting("abswitch.index-root", ""); r != "" {
		if !filepath.IsAbs(r) {
			r = filepath.Join(pass.Dir, r)
		}
		return r
	}
	dir := pass.Dir
	for dir != "" {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
	return ""
}

// indexCache memoizes the per-root coverage index: the driver analyzes every
// package of the module in one process, and the index is module-global.
var indexCache sync.Map // root|pattern -> map[string]bool

// coveredNames returns every identifier name referenced inside a
// determinism-flavored test function under root.
func coveredNames(root string, testRE *regexp.Regexp) map[string]bool {
	key := root + "\x00" + testRE.String()
	if v, ok := indexCache.Load(key); ok {
		return v.(map[string]bool)
	}
	covered := make(map[string]bool)
	fset := token.NewFileSet()
	_ = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "artifacts" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, perr := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if perr != nil {
			return nil // unparsable test file: not this analyzer's problem
		}
		// Pass 1: names used directly inside matching test bodies. Pass 2:
		// test tables are idiomatically package-level — `var cases = ...` or a
		// `func perfConfigs() map[...]Config` helper — so expand through
		// package-level declarations whose name a covered identifier reaches,
		// transitively. Non-matching Test funcs are not helpers and do not
		// propagate (a test never calls another test by name).
		decls := make(map[string][]string) // package-level decl name -> idents inside it
		var direct []string
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body == nil {
					continue
				}
				switch {
				case isTestFunc(d.Name.Name) && testRE.MatchString(d.Name.Name):
					direct = append(direct, identsIn(d.Body)...)
				case !isTestFunc(d.Name.Name) && d.Recv == nil:
					decls[d.Name.Name] = append(decls[d.Name.Name], identsIn(d.Body)...)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					var ids []string
					for _, v := range vs.Values {
						ids = append(ids, identsIn(v)...)
					}
					for _, nm := range vs.Names {
						decls[nm.Name] = append(decls[nm.Name], ids...)
					}
				}
			}
		}
		for len(direct) > 0 {
			name := direct[len(direct)-1]
			direct = direct[:len(direct)-1]
			if covered[name] {
				continue
			}
			covered[name] = true
			direct = append(direct, decls[name]...)
		}
		return nil
	})
	indexCache.Store(key, covered)
	return covered
}

func isTestFunc(name string) bool {
	return strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Benchmark") || strings.HasPrefix(name, "Fuzz")
}

func identsIn(n ast.Node) []string {
	var out []string
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok {
			out = append(out, id.Name)
		}
		return true
	})
	return out
}
