package model

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"emts/internal/dag"
	"emts/internal/daggen"
	"emts/internal/platform"
)

var testCluster = platform.Cluster{Name: "test", Procs: 32, SpeedGFlops: 1}

func task(flops, alpha float64) dag.Task {
	return dag.Task{Flops: flops, Alpha: alpha}
}

func TestAmdahlSequential(t *testing.T) {
	// 10 GFLOP on a 1 GFLOPS processor: 10 s sequential.
	v := task(10e9, 0.2)
	if got := (Amdahl{}).Time(v, 1, testCluster); math.Abs(got-10) > 1e-12 {
		t.Fatalf("T(v,1) = %g, want 10", got)
	}
}

func TestAmdahlFormula(t *testing.T) {
	v := task(10e9, 0.2)
	// T(v,4) = (0.2 + 0.8/4) * 10 = 4
	if got := (Amdahl{}).Time(v, 4, testCluster); math.Abs(got-4) > 1e-12 {
		t.Fatalf("T(v,4) = %g, want 4", got)
	}
}

func TestAmdahlLimit(t *testing.T) {
	// As p grows, time approaches alpha * Tseq.
	v := task(10e9, 0.25)
	big := (Amdahl{}).Time(v, 10000, platform.Cluster{Name: "big", Procs: 10000, SpeedGFlops: 1})
	if big < 2.5 || big > 2.6 {
		t.Fatalf("T(v,10000) = %g, want just above 2.5", big)
	}
}

func TestAmdahlMonotone(t *testing.T) {
	f := func(rawFlops, rawAlpha float64) bool {
		flops := 1e6 + math.Abs(rawFlops)
		alpha := math.Mod(math.Abs(rawAlpha), 1)
		v := task(flops, alpha)
		prev := math.Inf(1)
		for p := 1; p <= testCluster.Procs; p++ {
			cur := (Amdahl{}).Time(v, p, testCluster)
			if cur > prev+1e-12 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSyntheticPenalties(t *testing.T) {
	v := task(10e9, 0.0) // fully parallel so base times are easy
	amdahl := Amdahl{}
	syn := Synthetic{}
	cases := []struct {
		p       int
		penalty float64
	}{
		{1, 1.0},  // no penalty at p = 1
		{2, 1.1},  // even, not a perfect square
		{3, 1.3},  // odd
		{4, 1.0},  // even perfect square
		{5, 1.3},  // odd (also perfect-square-free, odd wins)
		{6, 1.1},  // even non-square
		{9, 1.3},  // odd perfect square: odd penalty applies
		{16, 1.0}, // even perfect square
		{25, 1.3}, // odd perfect square
		{32, 1.1}, // even non-square
	}
	for _, c := range cases {
		want := penaltyTimes(amdahl.Time(v, c.p, testCluster), c.penalty)
		if got := syn.Time(v, c.p, testCluster); math.Abs(got-want) > 1e-12 {
			t.Errorf("Synthetic T(v,%d) = %g, want %g (penalty %g)", c.p, got, want, c.penalty)
		}
	}
}

func penaltyTimes(base, f float64) float64 { return base * f }

func TestSyntheticIsNonMonotone(t *testing.T) {
	g := singleTaskGraph(t, 10e9, 0.05)
	tab := MustTable(g, Synthetic{}, testCluster)
	if tab.Monotone() {
		t.Fatal("Synthetic model should be non-monotonic")
	}
	// Concretely: T(v,5) should exceed T(v,4), imitating Figure 1.
	if tab.Time(0, 5) <= tab.Time(0, 4) {
		t.Fatalf("T(v,5)=%g <= T(v,4)=%g, want penalty spike", tab.Time(0, 5), tab.Time(0, 4))
	}
}

func TestSyntheticLiteralDiffersFromProse(t *testing.T) {
	v := task(10e9, 0.0)
	// p = 4: prose model has no penalty, literal pseudo-code penalizes squares.
	prose := (Synthetic{}).Time(v, 4, testCluster)
	literal := (SyntheticLiteral{}).Time(v, 4, testCluster)
	if literal <= prose {
		t.Fatalf("literal(4)=%g should exceed prose(4)=%g", literal, prose)
	}
	// p = 6: prose penalizes the non-square, literal does not.
	prose6 := (Synthetic{}).Time(v, 6, testCluster)
	literal6 := (SyntheticLiteral{}).Time(v, 6, testCluster)
	if prose6 <= literal6 {
		t.Fatalf("prose(6)=%g should exceed literal(6)=%g", prose6, literal6)
	}
}

func TestDowneySpeedupProperties(t *testing.T) {
	// S(1) = 1, S is capped at A, monotone non-decreasing for sigma <= 1.
	for _, sigma := range []float64{0, 0.5, 1, 2} {
		a := 16.0
		if s := Speedup(1, a, sigma); math.Abs(s-1) > 1e-9 {
			t.Fatalf("S(1) = %g with sigma=%g, want 1", s, sigma)
		}
		prev := 0.0
		for p := 1; p <= 200; p++ {
			s := Speedup(p, a, sigma)
			if s > a+1e-9 {
				t.Fatalf("S(%d)=%g exceeds A=%g (sigma=%g)", p, s, a, sigma)
			}
			if s+1e-9 < prev {
				t.Fatalf("S(%d)=%g < S(%d)=%g (sigma=%g): not monotone", p, s, p-1, prev, sigma)
			}
			prev = s
		}
		if s := Speedup(200, a, sigma); math.Abs(s-a) > 1e-6 {
			t.Fatalf("S(200)=%g, want A=%g (sigma=%g)", s, a, sigma)
		}
	}
}

func TestDowneyTime(t *testing.T) {
	d := Downey{A: 8, Sigma: 0}
	v := task(8e9, 0)
	// sigma=0: perfect speedup up to A processors.
	if got := d.Time(v, 8, testCluster); math.Abs(got-1) > 1e-9 {
		t.Fatalf("T(v,8) = %g, want 1", got)
	}
	if got := d.Time(v, 32, testCluster); math.Abs(got-1) > 1e-9 {
		t.Fatalf("T(v,32) = %g, want 1 (speedup capped at A)", got)
	}
}

func TestFuncModel(t *testing.T) {
	m := Func{ModelName: "custom", F: func(v dag.Task, p int, c platform.Cluster) float64 {
		return float64(p)
	}}
	if m.Name() != "custom" {
		t.Fatalf("Name = %q", m.Name())
	}
	if got := m.Time(dag.Task{}, 7, testCluster); got != 7 {
		t.Fatalf("Time = %g", got)
	}
	anon := Func{F: m.F}
	if anon.Name() != "func" {
		t.Fatalf("default name = %q", anon.Name())
	}
}

func singleTaskGraph(t *testing.T, flops, alpha float64) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder("one")
	b.AddTask(dag.Task{Flops: flops, Alpha: alpha})
	return b.MustBuild()
}

// TestTableMatchesModel: every cell of a table is Model.Time bit for bit —
// for the models whose rows NewTable fills directly (Amdahl, Synthetic,
// SyntheticLiteral) as for the per-cell path, which a Func wrapper of the
// same model takes — over random graphs and processor counts around the
// penalty boundaries (odd, even, perfect squares, the Chti and Grelon sizes).
func TestTableMatchesModel(t *testing.T) {
	g := singleTaskGraph(t, 10e9, 0.1)
	tab := MustTable(g, Amdahl{}, testCluster)
	if tab.Procs() != testCluster.Procs || tab.NumTasks() != 1 {
		t.Fatalf("table dims: %d procs, %d tasks", tab.Procs(), tab.NumTasks())
	}
	if !tab.Monotone() {
		t.Fatal("Amdahl table should be monotone")
	}

	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 6; trial++ {
		b := dag.NewBuilder("rand")
		for i, n := 0, 1+rng.Intn(60); i < n; i++ {
			alpha := rng.Float64()
			switch rng.Intn(8) {
			case 0:
				alpha = 0
			case 1:
				alpha = 1
			}
			b.AddTask(dag.Task{Flops: math.Pow(10, 3+12*rng.Float64()), Alpha: alpha})
		}
		g := b.MustBuild()
		for _, procs := range []int{1, 2, 3, 4, 16, 20, 64, 120, 121, 300} {
			c := platform.Cluster{Name: "rand", Procs: procs, SpeedGFlops: 0.5 + 4*rng.Float64()}
			for _, m := range []Model{Amdahl{}, Synthetic{}, SyntheticLiteral{}} {
				tab := MustTable(g, m, c)
				ref := MustTable(g, Func{ModelName: m.Name(), F: m.Time}, c)
				for v := 0; v < g.NumTasks(); v++ {
					for p := 1; p <= procs; p++ {
						want := math.Float64bits(m.Time(g.Task(dag.TaskID(v)), p, c))
						if got := math.Float64bits(tab.Time(dag.TaskID(v), p)); got != want {
							t.Fatalf("%s, %d procs: T(%d,%d) bits %x, Time %x", m.Name(), procs, v, p, got, want)
						}
						if got := math.Float64bits(ref.Time(dag.TaskID(v), p)); got != want {
							t.Fatalf("%s, %d procs: per-cell T(%d,%d) bits %x, Time %x", m.Name(), procs, v, p, got, want)
						}
					}
				}
			}
		}
	}
}

// TestTableRowErrorsMatchPerCell: a filled row rejects the same first cell
// with the same message as the per-cell path.
func TestTableRowErrorsMatchPerCell(t *testing.T) {
	b := dag.NewBuilder("zero")
	b.AddTask(dag.Task{Flops: 1e9, Alpha: 0.3})
	b.AddTask(dag.Task{Flops: 0, Alpha: 0.3})
	g := b.MustBuild()
	for _, m := range []Model{Amdahl{}, Synthetic{}, SyntheticLiteral{}} {
		_, err := NewTable(g, m, testCluster)
		_, ref := NewTable(g, Func{ModelName: m.Name(), F: m.Time}, testCluster)
		if err == nil || ref == nil || err.Error() != ref.Error() {
			t.Fatalf("%s: row error %v, per-cell error %v", m.Name(), err, ref)
		}
	}
}

func TestTableRejectsBrokenModel(t *testing.T) {
	g := singleTaskGraph(t, 10e9, 0.1)
	bad := Func{F: func(v dag.Task, p int, c platform.Cluster) float64 {
		if p == 5 {
			return -1
		}
		return 1
	}}
	if _, err := NewTable(g, bad, testCluster); err == nil {
		t.Fatal("expected error for negative time")
	}
	nan := Func{F: func(v dag.Task, p int, c platform.Cluster) float64 { return math.NaN() }}
	if _, err := NewTable(g, nan, testCluster); err == nil {
		t.Fatal("expected error for NaN time")
	}
	inf := Func{F: func(v dag.Task, p int, c platform.Cluster) float64 { return math.Inf(1) }}
	if _, err := NewTable(g, inf, testCluster); err == nil {
		t.Fatal("expected error for Inf time")
	}
}

func TestTableRejectsBadCluster(t *testing.T) {
	g := singleTaskGraph(t, 1e9, 0)
	if _, err := NewTable(g, Amdahl{}, platform.Cluster{Procs: 0, SpeedGFlops: 1}); err == nil {
		t.Fatal("expected cluster validation error")
	}
}

func TestBestProcs(t *testing.T) {
	g := singleTaskGraph(t, 10e9, 0.0)
	tabA := MustTable(g, Amdahl{}, testCluster)
	if got := tabA.BestProcs(0); got != testCluster.Procs {
		t.Fatalf("Amdahl BestProcs = %d, want %d", got, testCluster.Procs)
	}
	// Under the synthetic model with alpha = 0.3 the best count lands on an
	// even perfect square or power-of-two-like value, not necessarily P.
	g2 := singleTaskGraph(t, 10e9, 0.3)
	tabS := MustTable(g2, Synthetic{}, testCluster)
	best := tabS.BestProcs(0)
	for p := 1; p <= testCluster.Procs; p++ {
		if tabS.Time(0, p) < tabS.Time(0, best) {
			t.Fatalf("BestProcs=%d but p=%d is faster", best, p)
		}
	}
}

func TestModelNames(t *testing.T) {
	if (Amdahl{}).Name() != "amdahl" ||
		(Synthetic{}).Name() != "synthetic" ||
		(SyntheticLiteral{}).Name() != "synthetic-literal" ||
		(Downey{}).Name() != "downey" {
		t.Fatal("unexpected model name")
	}
}

// BenchmarkNewTable builds the execution-time table of a 100-task random
// PTG on Grelon (120 processors), the largest table of the serving
// benchmark's pool.
func BenchmarkNewTable(b *testing.B) {
	g, err := daggen.Random(daggen.RandomConfig{N: 100, Width: 0.5, Regularity: 0.5, Density: 0.5, Jump: 1}, daggen.DefaultCosts(), 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []Model{Amdahl{}, Synthetic{}} {
		b.Run(m.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewTable(g, m, platform.Grelon()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestNewTableCellError: a task with no positive finite time fails the table
// with a *CellError that names the model, the cell and its value.
func TestNewTableCellError(t *testing.T) {
	b := dag.NewBuilder("zero")
	b.AddTask(dag.Task{Name: "structural", Flops: 0})
	_, err := NewTable(b.MustBuild(), Synthetic{}, testCluster)
	var cellErr *CellError
	if !errors.As(err, &cellErr) {
		t.Fatalf("err = %v, want a *CellError", err)
	}
	if *cellErr != (CellError{Model: "synthetic", Task: 0, Procs: 1, Time: 0}) {
		t.Fatalf("cell error %+v", *cellErr)
	}
	if want := "model synthetic: T(task 0, p=1) = 0, want positive finite"; err.Error() != want {
		t.Fatalf("error text %q, want %q", err, want)
	}
}
