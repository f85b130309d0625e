// Fixture for the abswitch analyzer. The sibling a_test.go supplies the
// coverage universe (abswitch.index-root pins the index to this directory):
// DisableDirect is referenced directly in a determinism test, DisableVar
// through a package-level test table, DisableHelper through a non-test helper
// function — all three count. DisableOrphan appears in no test, and
// DisableWrongTest only in a test whose name has no determinism flavor.
package a

type Config struct {
	DisableDirect    bool
	DisableVar       bool
	DisableHelper    bool
	DisableOrphan    bool // want `A/B switch Config\.DisableOrphan is not referenced by any determinism test`
	DisableWrongTest bool // want `A/B switch Config\.DisableWrongTest is not referenced by any determinism test`
	Threshold        int
	Verbose          bool
}
