package listsched

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"emts/internal/dag"
)

// TestReadyHeapOrder drives the ready heap through random interleavings of
// push, replaceRoot and pop, over bottom levels drawn from a few values so
// that most keys tie exactly, and checks every task the heap gives up against
// a sort of its current contents by (bottom level descending, ID ascending).
// IDs are unique, as in a map, and handed out in random order, so the order
// of insertion never decides a tie. The goldens and FuzzMapperMatchesReference
// reach the heap only through whole schedules.
func TestReadyHeapOrder(t *testing.T) {
	order := func(a, b readyTask) int {
		return cmp.Or(cmp.Compare(b.bl, a.bl), cmp.Compare(a.id, b.id))
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(96)
		levels := 1 + rng.Intn(4)
		ids := rng.Perm(n)
		var h blHeap
		var live []readyTask // the heap's contents, kept sorted by order
		removed := 0
		// take checks the task the heap is about to give up, its root,
		// against the first of the sorted contents.
		take := func(op string) {
			t.Helper()
			if h.len() != len(live) {
				t.Fatalf("trial %d: heap holds %d tasks, want %d", trial, h.len(), len(live))
			}
			if got, want := h.items[0], live[0]; got != want {
				t.Fatalf("trial %d, %s after %d removals: root %+v, want %+v", trial, op, removed, got, want)
			}
			live = live[1:]
			removed++
		}
		add := func(rt readyTask) {
			i, _ := slices.BinarySearchFunc(live, rt, order)
			live = slices.Insert(live, i, rt)
		}
		next := 0
		for next < n || h.len() > 0 {
			switch op := rng.Intn(3); {
			case next < n && (h.len() == 0 || op == 0):
				rt := readyTask{bl: float64(rng.Intn(levels)), id: dag.TaskID(ids[next])}
				next++
				h.push(rt)
				add(rt)
			case next < n && op == 1:
				rt := readyTask{bl: float64(rng.Intn(levels)), id: dag.TaskID(ids[next])}
				next++
				take("replaceRoot")
				h.replaceRoot(rt)
				add(rt)
			default:
				take("pop")
				h.pop()
			}
		}
		if removed != n {
			t.Fatalf("trial %d: %d tasks removed, want %d", trial, removed, n)
		}
	}
}
