package schedule

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"emts/internal/dag"
	"emts/internal/model"
	"emts/internal/platform"
)

var testCluster = platform.Cluster{Name: "test", Procs: 4, SpeedGFlops: 1}

func chainGraph(t *testing.T) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder("chain")
	b.AddTask(dag.Task{Flops: 4e9, Alpha: 0}) // 4 s sequential
	b.AddTask(dag.Task{Flops: 2e9, Alpha: 0}) // 2 s sequential
	b.AddEdge(0, 1)
	return b.MustBuild()
}

// validChainSchedule: task 0 on procs {0,1} for [0,2), task 1 on {0} for [2,4).
func validChainSchedule() *Schedule {
	return &Schedule{
		Graph: "chain",
		Procs: 4,
		Entries: []Entry{
			{Task: 0, Start: 0, End: 2, Procs: []int{0, 1}},
			{Task: 1, Start: 2, End: 4, Procs: []int{0}},
		},
	}
}

func TestAllocationHelpers(t *testing.T) {
	a := Ones(3)
	if a.TotalProcs() != 3 {
		t.Fatalf("TotalProcs = %d", a.TotalProcs())
	}
	b := a.Clone()
	b[0] = 99
	if a[0] != 1 {
		t.Fatal("Clone aliases original")
	}
	b.Clamp(4)
	if b[0] != 4 {
		t.Fatalf("Clamp upper: %d", b[0])
	}
	c := Allocation{0, -5, 2}
	c.Clamp(4)
	if c[0] != 1 || c[1] != 1 || c[2] != 2 {
		t.Fatalf("Clamp lower: %v", c)
	}
}

func TestAllocationValidate(t *testing.T) {
	g := chainGraph(t)
	if err := (Allocation{1, 2}).Validate(g, 4); err != nil {
		t.Fatalf("valid allocation rejected: %v", err)
	}
	if err := (Allocation{1}).Validate(g, 4); err == nil {
		t.Fatal("wrong length accepted")
	}
	if err := (Allocation{1, 5}).Validate(g, 4); err == nil {
		t.Fatal("over-allocation accepted")
	}
	if err := (Allocation{0, 1}).Validate(g, 4); err == nil {
		t.Fatal("zero allocation accepted")
	}
}

func TestValidateAcceptsCorrectSchedule(t *testing.T) {
	g := chainGraph(t)
	s := validChainSchedule()
	tab := model.MustTable(g, model.Amdahl{}, testCluster)
	if err := s.Validate(g, tab); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	if s.Makespan() != 4 {
		t.Fatalf("Makespan = %g", s.Makespan())
	}
	alloc := s.Allocation()
	if alloc[0] != 2 || alloc[1] != 1 {
		t.Fatalf("Allocation = %v", alloc)
	}
}

func TestValidateCatchesPrecedenceViolation(t *testing.T) {
	g := chainGraph(t)
	s := validChainSchedule()
	s.Entries[1].Start = 1 // starts before predecessor finishes
	s.Entries[1].End = 3
	if err := s.Validate(g, nil); err == nil {
		t.Fatal("precedence violation accepted")
	}
}

func TestValidateCatchesProcessorOverlap(t *testing.T) {
	g := chainGraph(t)
	s := &Schedule{Graph: "chain", Procs: 4, Entries: []Entry{
		{Task: 0, Start: 0, End: 2, Procs: []int{0, 1}},
		{Task: 1, Start: 1, End: 3, Procs: []int{1}}, // overlaps task 0 on proc 1
	}}
	// Remove the edge so only the overlap can fail: use a 2-task graph with no
	// edges.
	b := dag.NewBuilder("par")
	b.AddTask(dag.Task{Flops: 1e9})
	b.AddTask(dag.Task{Flops: 1e9})
	g = b.MustBuild()
	if err := s.Validate(g, nil); err == nil {
		t.Fatal("processor overlap accepted")
	}
}

func TestValidateCatchesStructuralErrors(t *testing.T) {
	g := chainGraph(t)
	cases := []func(*Schedule){
		func(s *Schedule) { s.Entries = s.Entries[:1] },                 // missing task
		func(s *Schedule) { s.Entries[0].Task = 1 },                     // wrong index
		func(s *Schedule) { s.Entries[0].Start = -1 },                   // negative start
		func(s *Schedule) { s.Entries[0].End = s.Entries[0].Start - 1 }, // end before start
		func(s *Schedule) { s.Entries[0].Procs = nil },                  // no processors
		func(s *Schedule) { s.Entries[0].Procs = []int{0, 0} },          // duplicate proc
		func(s *Schedule) { s.Entries[0].Procs = []int{7} },             // proc out of range
		func(s *Schedule) { s.Entries[0].Procs = []int{0, 1, 2, 3, 3} }, // > P procs via dup
		func(s *Schedule) { s.Entries[0].Procs = []int{-1} },            // negative proc
	}
	for i, mutate := range cases {
		s := validChainSchedule()
		mutate(s)
		if err := s.Validate(g, nil); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestValidateRejectsNonFiniteTimes: a NaN passes every comparison and an
// infinite interval passes the duration check (its relative difference is
// NaN), so two tasks on one processor with such times used to validate.
func TestValidateRejectsNonFiniteTimes(t *testing.T) {
	b := dag.NewBuilder("par")
	b.AddTask(dag.Task{Flops: 1e9})
	b.AddTask(dag.Task{Flops: 1e9})
	g := b.MustBuild()
	tab := model.MustTable(g, model.Amdahl{}, testCluster)
	nan, inf := math.NaN(), math.Inf(1)
	for _, iv := range [][2]float64{{nan, nan}, {inf, inf}, {0, nan}, {nan, 1}, {0, inf}, {math.Inf(-1), 0}} {
		s := &Schedule{Graph: "par", Procs: 1, Entries: []Entry{
			{Task: 0, Start: iv[0], End: iv[1], Procs: []int{0}},
			{Task: 1, Start: iv[0], End: iv[1], Procs: []int{0}},
		}}
		for _, tab := range []*model.Table{nil, tab} {
			err := s.Validate(g, tab)
			if err == nil || !strings.Contains(err.Error(), "task 0 has invalid interval") {
				t.Errorf("interval [%g, %g), table %v: error %v, want task 0's invalid interval", iv[0], iv[1], tab != nil, err)
			}
		}
	}
}

func TestValidateCatchesWrongDuration(t *testing.T) {
	g := chainGraph(t)
	tab := model.MustTable(g, model.Amdahl{}, testCluster)
	s := validChainSchedule()
	s.Entries[1].End = 5 // duration 3 != model time 2
	if err := s.Validate(g, tab); err == nil {
		t.Fatal("wrong duration accepted")
	}
}

func TestBackToBackOnSameProcessorAllowed(t *testing.T) {
	// End of one task == start of the next on the same processor is legal.
	b := dag.NewBuilder("par")
	b.AddTask(dag.Task{Flops: 1e9})
	b.AddTask(dag.Task{Flops: 1e9})
	g := b.MustBuild()
	s := &Schedule{Graph: "par", Procs: 1, Entries: []Entry{
		{Task: 0, Start: 0, End: 1, Procs: []int{0}},
		{Task: 1, Start: 1, End: 2, Procs: []int{0}},
	}}
	if err := s.Validate(g, nil); err != nil {
		t.Fatalf("back-to-back rejected: %v", err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := validChainSchedule()
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Makespan() != s.Makespan() || len(s2.Entries) != len(s.Entries) {
		t.Fatalf("round trip mismatch: %+v", s2)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("nope")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Read(strings.NewReader(`{"procs": -1}`)); err == nil {
		t.Fatal("negative procs accepted")
	}
}

func TestASCIIGantt(t *testing.T) {
	s := validChainSchedule()
	out := s.ASCII(40)
	if !strings.Contains(out, "p000") || !strings.Contains(out, "makespan") {
		t.Fatalf("ASCII output malformed:\n%s", out)
	}
	// Task 0 paints glyph '0' on two processor rows.
	if strings.Count(out, "0000") < 2 {
		t.Fatalf("task 0 not visible on two rows:\n%s", out)
	}
}

func TestASCIIGanttEmpty(t *testing.T) {
	s := &Schedule{Graph: "empty", Procs: 2}
	out := s.ASCII(5)
	if !strings.Contains(out, "makespan 0") {
		t.Fatalf("empty schedule output: %s", out)
	}
}

func TestSVGGantt(t *testing.T) {
	s := validChainSchedule()
	svg := s.SVG(400, 200)
	for _, want := range []string{"<svg", "</svg>", "<rect", "task 0"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("SVG missing %q", want)
		}
	}
}

func TestSVGEscapesName(t *testing.T) {
	s := &Schedule{Graph: `a<b>&"c`, Procs: 1, Entries: []Entry{
		{Task: 0, Start: 0, End: 1, Procs: []int{0}},
	}}
	svg := s.SVG(100, 100)
	if strings.Contains(svg, "a<b>") {
		t.Fatal("graph name not escaped in SVG")
	}
}

func TestUtilization(t *testing.T) {
	s := validChainSchedule()
	// busy = 2s*2procs + 2s*1proc = 6 proc-s; total = 4s * 4 procs = 16.
	if got := s.Utilization(); got != 6.0/16.0 {
		t.Fatalf("Utilization = %g, want 0.375", got)
	}
	empty := &Schedule{Procs: 4}
	if empty.Utilization() != 0 {
		t.Fatal("empty utilization != 0")
	}
}
