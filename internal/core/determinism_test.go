package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"emts/internal/model"
)

// TestRunDeterministicAcrossGOMAXPROCS is the meta-test behind the schedlint
// determinism analyzers (DESIGN.md §9): the full EMTS pipeline — seeding,
// (μ+λ) evolution with parallel fitness evaluation, final mapping — must
// produce bit-identical results regardless of how many OS threads the worker
// pool actually gets. It runs the pipeline twice at
// GOMAXPROCS=1 (fully serialized workers) and twice at GOMAXPROCS=8 (real
// interleaving) and requires all four Results to be deeply equal, histories
// and evaluation counters included. Run under -race this also shakes out
// unsynchronized sharing in the evaluation engine.
func TestRunDeterministicAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomPTG(rng, 30)
	tab := model.MustTable(g, model.Amdahl{}, testCluster)

	runAt := func(procs int) *Result {
		t.Helper()
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		p := EMTS10(99)
		p.Workers = 0 // resolve to GOMAXPROCS so parallelism really differs
		res, err := Run(g, tab, p)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		return res
	}

	ref := runAt(1)
	for _, procs := range []int{1, 8, 8, 1} {
		got := runAt(procs)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("GOMAXPROCS=%d diverged from reference run:\n got: makespan=%v history=%v evals=%d\n ref: makespan=%v history=%v evals=%d",
				procs, got.Makespan, got.History, got.Evaluations,
				ref.Makespan, ref.History, ref.Evaluations)
		}
	}
}

// TestRunDeterministicFastPathOnOff pins the evaluation fast path (DESIGN.md
// §10): the admissible lower-bound prefilter (Layer 1) is an optimization,
// not a semantic change, so switching it off must produce bit-identical
// search results — with rejection enabled, where the prefilter actually
// fires.
func TestRunDeterministicFastPathOnOff(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomPTG(rng, 25)
	tab := model.MustTable(g, model.Synthetic{}, testCluster)

	run := func(noPrefilter bool) *Result {
		t.Helper()
		p := EMTS5(5)
		p.UseRejection = true
		p.DisablePrefilter = noPrefilter
		res, err := Run(g, tab, p)
		if err != nil {
			t.Fatalf("prefilter=%v: %v", !noPrefilter, err)
		}
		// PrefilterRejections is necessarily mode-dependent (zero with the
		// prefilter off); everything else must match bit for bit.
		res.PrefilterRejections = 0
		return res
	}

	ref := run(true) // prefilter off: every rejection decided in the map loop
	if got := run(false); !reflect.DeepEqual(got, ref) {
		t.Fatalf("prefilter on diverged from prefilter off:\n got: makespan=%v history=%v evals=%d rejects=%d\n ref: makespan=%v history=%v evals=%d rejects=%d",
			got.Makespan, got.History, got.Evaluations, got.Rejections,
			ref.Makespan, ref.History, ref.Evaluations, ref.Rejections)
	}
}
