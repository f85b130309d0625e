package dag

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzRead checks that arbitrary input to the JSON PTG reader either fails
// cleanly or produces a graph that satisfies the package invariants (valid
// topological order, consistent adjacency) and round-trips, and that the
// decode builds the Graph the reference decode builds, or fails with its
// error.
func FuzzRead(f *testing.F) {
	f.Add(`{"name":"g","tasks":[{"flops":1},{"flops":2}],"edges":[[0,1]]}`)
	f.Add(`{"tasks":[],"edges":[]}`)
	f.Add(`{"tasks":[{"flops":1}],"edges":[[0,0]]}`)
	f.Add(`not json at all`)
	f.Add(`{"tasks":[{"flops":-5}]}`)
	f.Fuzz(func(t *testing.T, src string) {
		checkMatchesReference(t, []byte(src))
		g, err := Read(strings.NewReader(src))
		if err != nil {
			return
		}
		order, err := g.TopologicalOrder()
		if err != nil {
			t.Fatalf("accepted graph has no topological order: %v", err)
		}
		if len(order) != g.NumTasks() {
			t.Fatalf("order covers %d of %d tasks", len(order), g.NumTasks())
		}
		for _, e := range g.Edges() {
			if e.Src == e.Dst {
				t.Fatal("accepted self-loop")
			}
		}
		var buf bytes.Buffer
		if err := g.Write(&buf); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		g2, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if g2.NumTasks() != g.NumTasks() || g2.NumEdges() != g.NumEdges() {
			t.Fatal("round trip changed the graph")
		}
	})
}

// FuzzReadDOT checks the DOT parser never panics and only accepts graphs
// that satisfy the invariants.
func FuzzReadDOT(f *testing.F) {
	f.Add(`digraph g { a [size="1e9"] b a -> b }`)
	f.Add(`digraph { a -> b -> c }`)
	f.Add(`strict digraph "x" { graph [k=v] n [size=1] }`)
	f.Add(`digraph { /* comment`)
	f.Add(`digraph { a [size="`)
	f.Add(`digraph { rankdir=TB; a -> a }`)
	f.Add("digraph { \"quo\\\"ted\" }")
	f.Fuzz(func(t *testing.T, src string) {
		g, err := ReadDOT(strings.NewReader(src))
		if err != nil {
			return
		}
		if _, err := g.TopologicalOrder(); err != nil {
			t.Fatalf("accepted graph has no topological order: %v", err)
		}
		for i := 0; i < g.NumTasks(); i++ {
			task := g.Task(TaskID(i))
			if task.ID != TaskID(i) {
				t.Fatal("non-dense IDs")
			}
		}
	})
}
