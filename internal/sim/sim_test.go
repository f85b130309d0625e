package sim

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"emts/internal/daggen"
	"emts/internal/platform"
)

func TestModelByName(t *testing.T) {
	for _, name := range ModelNames() {
		m, err := ModelByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m == nil {
			t.Fatalf("%s: nil model", name)
		}
	}
	if _, err := ModelByName("nope"); err == nil {
		t.Fatal("unknown model accepted")
	}
	// Aliases.
	if m, _ := ModelByName("model1"); m.Name() != "amdahl" {
		t.Fatal("model1 alias broken")
	}
	if m, _ := ModelByName("Model2"); m.Name() != "synthetic" {
		t.Fatal("model2 alias broken (case-insensitivity)")
	}
}

func TestRunAllAlgorithmsOnFFT(t *testing.T) {
	g, err := daggen.FFT(8, daggen.DefaultCosts(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range AlgorithmNames() {
		rep, err := Run(g, platform.Chti(), "synthetic", algo, 42)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if rep.Makespan <= 0 {
			t.Fatalf("%s: makespan %g", algo, rep.Makespan)
		}
		if rep.Schedule == nil {
			t.Fatalf("%s: nil schedule", algo)
		}
		if u := rep.Utilization(); u <= 0 || u > 1 {
			t.Fatalf("%s: utilization %g", algo, u)
		}
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	g, _ := daggen.FFT(2, daggen.DefaultCosts(), 1)
	if _, err := Run(g, platform.Chti(), "amdahl", "magic", 1); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := Run(g, platform.Chti(), "wat", "cpa", 1); err == nil {
		t.Fatal("unknown model accepted")
	}
}

// TestRunTypedSentinels asserts the by-name entry points classify caller
// mistakes with the typed sentinels (the server maps these to 400s) while
// keeping the original message text.
func TestRunTypedSentinels(t *testing.T) {
	g, _ := daggen.FFT(2, daggen.DefaultCosts(), 1)

	_, err := Run(g, platform.Chti(), "synthetic", "magic", 1)
	if !errors.Is(err, ErrUnknownAlgorithm) {
		t.Fatalf("err = %v, want ErrUnknownAlgorithm", err)
	}
	if !strings.Contains(err.Error(), `unknown algorithm "magic"`) {
		t.Fatalf("algorithm error lost its message: %v", err)
	}

	_, err = Run(g, platform.Chti(), "wat", "cpa", 1)
	if !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("err = %v, want ErrUnknownModel", err)
	}
	if !strings.Contains(err.Error(), `unknown model "wat"`) {
		t.Fatalf("model error lost its message: %v", err)
	}

	_, err = Run(g, platform.Cluster{Name: "broken", Procs: 0, SpeedGFlops: 1}, "synthetic", "cpa", 1)
	if !errors.Is(err, ErrBadCluster) {
		t.Fatalf("err = %v, want ErrBadCluster", err)
	}
}

// TestRunContextCancelled asserts the context-aware entry point refuses to
// start under a cancelled context, for heuristics and EMTS alike.
func TestRunContextCancelled(t *testing.T) {
	g, _ := daggen.FFT(2, daggen.DefaultCosts(), 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range []string{"cpa", "emts5"} {
		if _, err := RunContext(ctx, g, platform.Chti(), "synthetic", algo, 1); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", algo, err)
		}
	}
}

func TestRunEMTSCarriesEAResult(t *testing.T) {
	g, _ := daggen.Strassen(daggen.DefaultCosts(), 3)
	rep, err := Run(g, platform.Chti(), "synthetic", "emts5", 7)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EMTS == nil {
		t.Fatal("EMTS details missing")
	}
	if len(rep.EMTS.History) != 6 {
		t.Fatalf("history length %d", len(rep.EMTS.History))
	}
	if rep.Makespan > rep.EMTS.BestSeedMakespan() {
		t.Fatal("EMTS worse than its seeds")
	}
	if rep.Elapsed <= 0 {
		t.Fatal("elapsed time not measured")
	}
}

func TestCompareSharesInstanceAndSorts(t *testing.T) {
	g, err := daggen.Random(daggen.RandomConfig{
		N: 30, Width: 0.5, Regularity: 0.5, Density: 0.5, Jump: 1,
	}, daggen.DefaultCosts(), 5)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := Compare(g, platform.Grelon(), "synthetic",
		[]string{"mcpa", "hcpa", "emts5"}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("%d reports", len(reports))
	}
	for i := 1; i < len(reports); i++ {
		if reports[i].Makespan < reports[i-1].Makespan {
			t.Fatal("reports not sorted by makespan")
		}
	}
	// EMTS5 seeds from MCPA and HCPA, so it must rank first (ties allowed).
	if reports[0].Algorithm != "emts5" && reports[0].Makespan != reports[1].Makespan {
		t.Fatalf("EMTS5 not best: %s at %g", reports[0].Algorithm, reports[0].Makespan)
	}
}

func TestCompareUnknownAlgorithmNamesOffender(t *testing.T) {
	g, _ := daggen.FFT(2, daggen.DefaultCosts(), 1)
	_, err := Compare(g, platform.Chti(), "amdahl", []string{"cpa", "bogus"}, 1)
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("err = %v, want mention of offender", err)
	}
}

// TestResolveNameTable pins the name table: the canonical names keep their
// order with random listed last, aliases and every letter case resolve to
// the canonical name, each model's Name is its canonical name, and each
// algorithm's plan holds what its kind runs.
func TestResolveNameTable(t *testing.T) {
	wantModels := []string{"amdahl", "synthetic", "synthetic-literal", "synthetic-monotone", "downey"}
	if got := ModelNames(); !slices.Equal(got, wantModels) {
		t.Fatalf("ModelNames() = %v, want %v", got, wantModels)
	}
	wantAlgos := []string{"one", "cpa", "hcpa", "mcpa", "mcpa2", "bicpa", "delta-cp", "eft", "emts5", "emts10", "random"}
	if got := AlgorithmNames(); !slices.Equal(got, wantAlgos) {
		t.Fatalf("AlgorithmNames() = %v, want %v", got, wantAlgos)
	}
	for _, c := range []struct{ model, algo, wantModel, wantAlgo string }{
		{"model1", "emts", "amdahl", "emts5"},
		{"MODEL2", "OneStep", "synthetic", "eft"},
		{"Synthetic-Monotone", "deltacp", "synthetic-monotone", "delta-cp"},
		{"DOWNEY", "EMTS10", "downey", "emts10"},
	} {
		p, err := Resolve(c.model, c.algo, 1)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.model, c.algo, err)
		}
		if p.ModelName != c.wantModel || p.Algorithm != c.wantAlgo {
			t.Fatalf("%s/%s resolved to %s/%s, want %s/%s", c.model, c.algo, p.ModelName, p.Algorithm, c.wantModel, c.wantAlgo)
		}
	}
	for _, name := range ModelNames() {
		p, err := Resolve(name, "cpa", 1)
		if err != nil || p.ModelName != name || p.Model.Name() != name {
			t.Fatalf("%s: plan %+v, err %v", name, p, err)
		}
	}
	for _, name := range AlgorithmNames() {
		p, err := Resolve("amdahl", name, 9)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		switch name {
		case "emts5", "emts10":
			if p.Params == nil || p.Params.Seed != 9 || p.Allocator != nil {
				t.Fatalf("%s: plan %+v, want seeded EMTS params only", name, p)
			}
		case "eft":
			if p.Params != nil || p.Allocator != nil {
				t.Fatalf("%s: plan %+v, want neither params nor allocator", name, p)
			}
		default:
			if p.Params != nil || p.Allocator == nil || p.Allocator.Name() != name {
				t.Fatalf("%s: plan %+v, want its allocator only", name, p)
			}
		}
	}
	if _, err := Resolve("nope", "nope", 1); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("both names unknown: err = %v, want the model reported", err)
	}
}
