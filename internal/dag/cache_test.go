package dag

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestIndegreesMatchPredecessors(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomLayeredGraph(rng, 30)
		indeg := g.Indegrees()
		if len(indeg) != g.NumTasks() {
			return false
		}
		for i := 0; i < g.NumTasks(); i++ {
			if indeg[i] != len(g.Predecessors(TaskID(i))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTopologicalOrderReturnsCopy: callers may reorder the returned slice
// without corrupting the graph's cached order.
func TestTopologicalOrderReturnsCopy(t *testing.T) {
	g := diamond(t)
	first, err := g.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		first[i] = 0 // clobber the caller's copy
	}
	second, err := g.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(first, second) {
		t.Fatal("TopologicalOrder returned the cached slice, not a copy")
	}
	pos := make([]int, g.NumTasks())
	for i, v := range second {
		pos[v] = i
	}
	for _, e := range g.Edges() {
		if pos[e.Src] >= pos[e.Dst] {
			t.Fatalf("cached order violates edge %d->%d after caller mutation", e.Src, e.Dst)
		}
	}
}
