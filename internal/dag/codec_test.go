package dag

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestReadStrictValidation exercises the untrusted-input rejections of the
// JSON codec: every bad input must fail with a *DecodeError naming the
// offending field.
func TestReadStrictValidation(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		field string
	}{
		{"inf flops", `{"tasks":[{"flops":1e999}],"edges":[]}`, ""}, // json decode error, not DecodeError
		{"negative flops", `{"tasks":[{"flops":-1}],"edges":[]}`, "tasks[0].flops"},
		{"alpha above one", `{"tasks":[{"flops":1,"alpha":1.5}],"edges":[]}`, "tasks[0].alpha"},
		{"negative alpha", `{"tasks":[{"flops":1,"alpha":-0.1}],"edges":[]}`, "tasks[0].alpha"},
		{"negative data", `{"tasks":[{"flops":1,"data":-2}],"edges":[]}`, "tasks[0].data"},
		{"source out of range", `{"tasks":[{"flops":1}],"edges":[[5,0]]}`, "edges[0]"},
		{"destination out of range", `{"tasks":[{"flops":1}],"edges":[[0,-1]]}`, "edges[0]"},
		{"self-loop", `{"tasks":[{"flops":1}],"edges":[[0,0]]}`, "edges[0]"},
		{"duplicate edge", `{"tasks":[{"flops":1},{"flops":1}],"edges":[[0,1],[0,1]]}`, "edges[1]"},
		{"cycle", `{"tasks":[{"flops":1},{"flops":1}],"edges":[[0,1],[1,0]]}`, "edges"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(tc.src))
			if err == nil {
				t.Fatalf("Read accepted %s", tc.src)
			}
			var de *DecodeError
			if !errors.As(err, &de) {
				if tc.field == "" {
					return // plain JSON decode failures are not DecodeErrors
				}
				t.Fatalf("error %v is not a *DecodeError", err)
			}
			if tc.field != "" && de.Field != tc.field {
				t.Fatalf("DecodeError field = %q, want %q (err: %v)", de.Field, tc.field, err)
			}
		})
	}
}

// TestNonFiniteWeightsRejected reaches the non-finite checks directly:
// encoding/json cannot produce NaN or Inf from a document, but newGraph
// guards programmatic fileGraph construction all the same.
func TestNonFiniteWeightsRejected(t *testing.T) {
	cases := []struct {
		name  string
		fg    fileGraph
		field string
	}{
		{"nan flops", fileGraph{Tasks: []fileTask{{Flops: math.NaN()}}}, "tasks[0].flops"},
		{"inf flops", fileGraph{Tasks: []fileTask{{Flops: math.Inf(1)}}}, "tasks[0].flops"},
		{"nan alpha", fileGraph{Tasks: []fileTask{{Flops: 1, Alpha: math.NaN()}}}, "tasks[0].alpha"},
		{"inf data", fileGraph{Tasks: []fileTask{{Flops: 1, Data: math.Inf(-1)}}}, "tasks[0].data"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := newGraph(tc.fg.content())
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("error %v is not a *DecodeError", err)
			}
			if de.Field != tc.field {
				t.Fatalf("DecodeError field = %q, want %q", de.Field, tc.field)
			}
		})
	}
}

// TestReadCycleWrapsSentinel checks that the cycle rejection is reachable both
// as a typed DecodeError and as the package's ErrCycle sentinel.
func TestReadCycleWrapsSentinel(t *testing.T) {
	src := `{"tasks":[{"flops":1},{"flops":1},{"flops":1}],"edges":[[0,1],[1,2],[2,0]]}`
	_, err := Read(strings.NewReader(src))
	if !errors.Is(err, ErrCycle) {
		t.Fatalf("cycle error %v does not wrap ErrCycle", err)
	}
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("cycle error %v is not a *DecodeError", err)
	}
}

// TestReadAcceptsValidGraph guards against overzealous validation: a valid
// fork-join with names and data survives the strict decoder unchanged.
func TestReadAcceptsValidGraph(t *testing.T) {
	src := `{"name":"fj","tasks":[{"name":"a","flops":1e9,"alpha":0.1},{"flops":2e9,"alpha":0.5,"data":64},{"flops":3e9,"alpha":1}],"edges":[[0,1],[0,2]]}`
	g, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if g.NumTasks() != 3 || g.NumEdges() != 2 || g.Name() != "fj" {
		t.Fatalf("got %d tasks, %d edges, name %q", g.NumTasks(), g.NumEdges(), g.Name())
	}
}

// TestReadRejectsTrailingData: Read is as strict as UnmarshalGraph, so a
// second document after the PTG is an error, not silently dropped, and both
// entry points reject it with the same message.
func TestReadRejectsTrailingData(t *testing.T) {
	for _, src := range []string{
		`{"tasks":[{"flops":1}]} {"tasks":[]}`,
		`{"tasks":[{"flops":1}]}]`,
		`{"tasks":[{"flops":1}]} x`,
	} {
		_, err := Read(strings.NewReader(src))
		if err == nil {
			t.Fatalf("Read accepted trailing data in %s", src)
		}
		_, uerr := UnmarshalGraph([]byte(src))
		if uerr == nil || err.Error() != uerr.Error() {
			t.Fatalf("Read error %q, UnmarshalGraph error %v", err, uerr)
		}
	}
	// Trailing whitespace is not data.
	if _, err := Read(strings.NewReader("{\"tasks\":[{\"flops\":1}]}\n\t ")); err != nil {
		t.Fatalf("Read rejected trailing whitespace: %v", err)
	}
}

// fromFileGraph is the reference decode that newGraph replaced: it
// validates the file structure field by field, keeping a set of the edges
// seen, and hands it to the Builder. The decode fuzzers require newGraph to
// build the same Graph or fail with the same error.
func fromFileGraph(fg fileGraph) (*Graph, error) {
	n := len(fg.Tasks)
	for i, t := range fg.Tasks {
		switch {
		case math.IsNaN(t.Flops) || math.IsInf(t.Flops, 0):
			return nil, decodeErrorf(nil, fmt.Sprintf("tasks[%d].flops", i), "non-finite value %g", t.Flops)
		case t.Flops < 0:
			return nil, decodeErrorf(nil, fmt.Sprintf("tasks[%d].flops", i), "negative value %g", t.Flops)
		case math.IsNaN(t.Alpha) || math.IsInf(t.Alpha, 0):
			return nil, decodeErrorf(nil, fmt.Sprintf("tasks[%d].alpha", i), "non-finite value %g", t.Alpha)
		case t.Alpha < 0 || t.Alpha > 1:
			return nil, decodeErrorf(nil, fmt.Sprintf("tasks[%d].alpha", i), "value %g outside [0,1]", t.Alpha)
		case math.IsNaN(t.Data) || math.IsInf(t.Data, 0):
			return nil, decodeErrorf(nil, fmt.Sprintf("tasks[%d].data", i), "non-finite value %g", t.Data)
		case t.Data < 0:
			return nil, decodeErrorf(nil, fmt.Sprintf("tasks[%d].data", i), "negative value %g", t.Data)
		}
	}
	seen := make(map[[2]int]bool, len(fg.Edges))
	for i, e := range fg.Edges {
		switch {
		case e[0] < 0 || e[0] >= n:
			return nil, decodeErrorf(nil, fmt.Sprintf("edges[%d]", i), "source %d out of range (have %d tasks)", e[0], n)
		case e[1] < 0 || e[1] >= n:
			return nil, decodeErrorf(nil, fmt.Sprintf("edges[%d]", i), "destination %d out of range (have %d tasks)", e[1], n)
		case e[0] == e[1]:
			return nil, decodeErrorf(nil, fmt.Sprintf("edges[%d]", i), "self-loop on task %d", e[0])
		case seen[e]:
			return nil, decodeErrorf(nil, fmt.Sprintf("edges[%d]", i), "duplicate edge (%d,%d)", e[0], e[1])
		}
		seen[e] = true
	}
	b := NewBuilder(fg.Name)
	for _, t := range fg.Tasks {
		b.AddTask(Task{Name: t.Name, Flops: t.Flops, Alpha: t.Alpha, Data: t.Data})
	}
	for _, e := range fg.Edges {
		b.AddEdge(TaskID(e[0]), TaskID(e[1]))
	}
	g, err := b.Build()
	if errors.Is(err, ErrCycle) {
		return nil, decodeErrorf(ErrCycle, "edges", "graph contains a cycle")
	}
	return g, err
}

// sameGraph reports whether two graphs are identical: name, tasks (float
// bits included), both adjacency directions, indegrees and the
// topological order.
func sameGraph(a, b *Graph) bool {
	if a.name != b.name || len(a.tasks) != len(b.tasks) || a.edges != b.edges ||
		!slices.Equal(a.indeg, b.indeg) || !slices.Equal(a.topo, b.topo) {
		return false
	}
	for i, t := range a.tasks {
		u := b.tasks[i]
		if t.ID != u.ID || t.Name != u.Name || math.Float64bits(t.Flops) != math.Float64bits(u.Flops) ||
			math.Float64bits(t.Alpha) != math.Float64bits(u.Alpha) || math.Float64bits(t.Data) != math.Float64bits(u.Data) {
			return false
		}
		v := TaskID(i)
		if !slices.Equal(a.Successors(v), b.Successors(v)) || !slices.Equal(a.Predecessors(v), b.Predecessors(v)) {
			return false
		}
	}
	return true
}

// referenceUnmarshal decodes data as UnmarshalGraph did before newGraph:
// encoding/json into the file structure, then fromFileGraph.
func referenceUnmarshal(data []byte) (*Graph, error) {
	var fg fileGraph
	if err := json.Unmarshal(data, &fg); err != nil {
		return nil, fmt.Errorf("dag: decoding PTG: %w", err)
	}
	return fromFileGraph(fg)
}

// checkMatchesReference fails t unless UnmarshalGraph and the reference
// decode build the same Graph or fail with the same error.
func checkMatchesReference(t *testing.T, data []byte) {
	t.Helper()
	g, err := UnmarshalGraph(data)
	ref, rerr := referenceUnmarshal(data)
	if (err == nil) != (rerr == nil) || (err != nil && err.Error() != rerr.Error()) {
		t.Fatalf("UnmarshalGraph error %v, reference %v", err, rerr)
	}
	if err == nil && !sameGraph(g, ref) {
		t.Fatalf("UnmarshalGraph built %+v, reference %+v", g, ref)
	}
	var de, rde *DecodeError
	if errors.As(err, &de) != errors.As(rerr, &rde) || (de != nil && (de.Field != rde.Field || errors.Is(de, ErrCycle) != errors.Is(rde, ErrCycle))) {
		t.Fatalf("UnmarshalGraph error %#v, reference %#v", err, rerr)
	}
}

// TestNewGraphMatchesReference runs newGraph and the reference decode on
// random edge lists over few tasks, so repeats, self-loops, endpoints out of
// range and cycles are frequent and often several at once: the first
// failing index and its text must agree.
func TestNewGraphMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 3000; iter++ {
		fg := fileGraph{Name: "g"}
		for i, n := 0, rng.Intn(7); i < n; i++ {
			fg.Tasks = append(fg.Tasks, fileTask{Flops: float64(rng.Intn(3)), Alpha: rng.Float64()})
		}
		for i, m := 0, rng.Intn(12); i < m; i++ {
			src, dst := rng.Intn(len(fg.Tasks)+2)-1, rng.Intn(len(fg.Tasks)+2)-1
			if rng.Intn(2) == 0 { // forward edges keep many graphs acyclic
				src, dst = min(src, dst), max(src, dst)
			}
			fg.Edges = append(fg.Edges, [2]int{src, dst})
		}
		data, err := json.Marshal(fg)
		if err != nil {
			t.Fatal(err)
		}
		checkMatchesReference(t, data)
	}
}
