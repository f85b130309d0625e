package dag

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// sameContent reports whether scanGraph's result is what encoding/json
// decoded into the file structure, float bits included (so -0 and 0
// differ).
func sameContent(name string, tasks []Task, edges []int, fg fileGraph) bool {
	refName, refTasks, refEdges := fg.content()
	if name != refName || len(tasks) != len(refTasks) || !slices.Equal(edges, refEdges) {
		return false
	}
	for i, t := range tasks {
		u := refTasks[i]
		if t.Name != u.Name || math.Float64bits(t.Flops) != math.Float64bits(u.Flops) ||
			math.Float64bits(t.Alpha) != math.Float64bits(u.Alpha) || math.Float64bits(t.Data) != math.Float64bits(u.Data) {
			return false
		}
	}
	return true
}

// referenceSkip is Skip as it was written before it became one loop: the
// recursive descent through object and Array.
func referenceSkip(s *Scanner) ([]byte, bool) {
	c := s.peek()
	start := s.pos
	var ok bool
	switch c {
	case '{':
		ok = s.object(func([]byte) bool { _, ok := referenceSkip(s); return ok })
	case '[':
		ok = s.Array(func() bool { _, ok := referenceSkip(s); return ok })
	case '"':
		_, ok = s.plain()
	default:
		_, _, ok = s.number()
	}
	return s.data[start:s.pos], ok
}

// referenceJSON is the canonical encoding as encoding/json produces it from
// the file structure: what MarshalJSON must equal byte for byte.
func referenceJSON(g *Graph) ([]byte, error) {
	fg := fileGraph{Name: g.name, Tasks: make([]fileTask, len(g.tasks))}
	for i, t := range g.tasks {
		fg.Tasks[i] = fileTask{Name: t.Name, Flops: t.Flops, Alpha: t.Alpha, Data: t.Data}
	}
	for _, e := range g.Edges() {
		fg.Edges = append(fg.Edges, [2]int{int(e.Src), int(e.Dst)})
	}
	return json.Marshal(fg)
}

// FuzzScannerMatchesJSON is the differential check of the PTG fast path:
// whenever scanGraph accepts an input, encoding/json accepts it too and
// decodes the identical file structure; UnmarshalGraph builds the Graph the
// reference decode (encoding/json, fromFileGraph and the Builder) builds,
// or fails with its error; for every graph UnmarshalGraph accepts,
// MarshalJSON equals encoding/json's encoding of it; and Skip accepts the
// input, at every nesting depth a caller can start it from, exactly when
// the recursive reference does, with the same bytes.
func FuzzScannerMatchesJSON(f *testing.F) {
	f.Add(`{"name":"g","tasks":[{"name":"a","flops":1e9,"alpha":0.25},{"flops":2,"data":8}],"edges":[[0,1]]}`)
	f.Add(`{ "edges" : [ [1,0] ] , "tasks" : [ {"data":1E+2,"alpha":-0,"flops":-0.5e-3} , {"flops":1e21} ] }`)
	f.Add(`{"tasks":[],"edges":[]}`)
	f.Add(`{"name":"<&>","tasks":[{"name":"x","flops":1e-7}]}`)
	f.Add(`{"Tasks":[{"FLOPS":1}],"tasks":[{"flops":2}]}`)
	f.Add(`{"tasks":[{"flops":1,"flops":2}],"edges":[[0,1,2]]}`)
	f.Add(`{"name":"q\"uote","tasks":[{"flops":1e400}],"edges":[[0]]}`)
	f.Add(`{"tasks":[{"flops":1}],"edges":null,"x":[{"y":"z"}]}`)
	f.Fuzz(func(t *testing.T, src string) {
		data := []byte(src)
		name, tasks, edges, ok := scanGraph(data)
		if ok {
			var ref fileGraph
			if err := json.Unmarshal(data, &ref); err != nil {
				t.Fatalf("scanner accepted what encoding/json rejects: %v", err)
			}
			if !sameContent(name, tasks, edges, ref) {
				t.Fatalf("scanner decoded %q %+v %v, encoding/json %+v", name, tasks, edges, ref)
			}
		}
		for _, depth := range []int{0, 1, maxScanDepth - 2, maxScanDepth} {
			s, ref := NewScanner(data), NewScanner(data)
			s.depth, ref.depth = depth, depth
			got, ok := s.Skip()
			want, refOK := referenceSkip(ref)
			if ok != refOK || (ok && (!bytes.Equal(got, want) || s.pos != ref.pos || s.depth != depth)) {
				t.Fatalf("depth %d: Skip = %q, %v; reference %q, %v", depth, got, ok, want, refOK)
			}
		}
		checkMatchesReference(t, data)
		g, err := UnmarshalGraph(data)
		if err != nil {
			return
		}
		got, err := g.MarshalJSON()
		if err != nil {
			t.Fatalf("MarshalJSON: %v", err)
		}
		want, err := referenceJSON(g)
		if err != nil {
			t.Fatalf("encoding/json: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("MarshalJSON\n%s\nencoding/json\n%s", got, want)
		}
		// An edgeless graph encodes "edges":null, which is outside the
		// subset; every other canonical encoding with plain names is in it.
		if _, _, _, ok := scanGraph(got); !ok && g.NumEdges() > 0 && isPlainASCII(g) {
			t.Fatalf("scanner rejects the canonical encoding %s", got)
		}
	})
}

// isPlainASCII reports whether every name of g is printable ASCII that
// json.Marshal writes without escapes, so that its canonical encoding is in
// the scanner's subset.
func isPlainASCII(g *Graph) bool {
	names := []string{g.name}
	for _, t := range g.tasks {
		names = append(names, t.Name)
	}
	for _, s := range names {
		for i := 0; i < len(s); i++ {
			if c := s[i]; c < 0x20 || c > 0x7e || strings.IndexByte(`"\<>&`, c) >= 0 {
				return false
			}
		}
	}
	return true
}

// TestMarshalJSONMatchesEncodingJSON pins the canonical encoder to
// encoding/json on the values where the two could part: the float format's
// exponent cutoffs, negative zero, subnormals, and names that need escaping,
// are not valid UTF-8, or hold U+2028 and U+2029.
func TestMarshalJSONMatchesEncodingJSON(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 123456789e13, 5e-324,
		math.MaxFloat64, 0.1, 1.0 / 3, 2.5e9, 1060725168098.3148}
	names := []string{"", "plain", "<a href>&amp;", "q\"uote\\", "tab\tnew\nline\r\b\f\x00\x1f\x7f",
		"héllo ☃", "bad\xffutf8\xc3", "sep par ", "\U0001F600"}
	b := NewBuilder("g<&> ")
	for i, f := range floats {
		b.AddTask(Task{Name: names[i%len(names)], Flops: math.Abs(f), Alpha: math.Mod(math.Abs(f), 1), Data: f})
	}
	for i, name := range names {
		b.AddTask(Task{Name: name, Flops: float64(i)})
	}
	b.AddEdge(0, 3)
	b.AddEdge(0, 1)
	b.AddEdge(2, 5)
	g := b.MustBuild()
	got, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceJSON(g)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("MarshalJSON\n%s\nencoding/json\n%s", got, want)
	}
	if viaMarshal, err := json.Marshal(g); err != nil || !bytes.Equal(viaMarshal, got) {
		t.Fatalf("json.Marshal(g) = %s, %v; want MarshalJSON's bytes", viaMarshal, err)
	}

	// Random graphs with edges round-trip through the scanner.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		g := randomLayeredGraph(rng, 40)
		got, _ := g.MarshalJSON()
		if want, _ := referenceJSON(g); !bytes.Equal(got, want) {
			t.Fatalf("random graph %d: MarshalJSON differs from encoding/json", i)
		}
		name, tasks, edges, ok := scanGraph(got)
		if g.NumEdges() == 0 {
			continue // "edges":null is outside the subset
		}
		if !ok {
			t.Fatalf("random graph %d: scanner rejects %s", i, got)
		}
		var ref fileGraph
		if err := json.Unmarshal(got, &ref); err != nil || !sameContent(name, tasks, edges, ref) {
			t.Fatalf("random graph %d: scanner and encoding/json disagree (%v)", i, err)
		}
		checkMatchesReference(t, got)
	}
}

// TestMarshalJSONRejectsNonFinite keeps encoding/json's refusal of values
// JSON cannot represent (a Builder accepts NaN and infinite weights).
func TestMarshalJSONRejectsNonFinite(t *testing.T) {
	for _, task := range []Task{{Flops: math.NaN()}, {Flops: 1, Alpha: math.NaN()}, {Flops: 1, Data: math.Inf(1)}} {
		b := NewBuilder("bad")
		b.AddTask(task)
		g := b.MustBuild()
		_, err := g.MarshalJSON()
		_, refErr := referenceJSON(g)
		if err == nil || refErr == nil || !strings.HasSuffix(refErr.Error(), err.Error()) {
			t.Fatalf("task %+v: MarshalJSON error %v, encoding/json %v", task, err, refErr)
		}
	}
}

// TestBuildDropsDuplicateEdges: duplicate AddEdge calls, in any order,
// leave one edge in both adjacency directions and in the edge count.
func TestBuildDropsDuplicateEdges(t *testing.T) {
	b := NewBuilder("dup")
	for i := 0; i < 4; i++ {
		b.AddTask(Task{Flops: 1})
	}
	for _, e := range [][2]TaskID{{0, 2}, {0, 1}, {0, 2}, {1, 3}, {0, 1}, {2, 3}, {0, 2}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.MustBuild()
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if got := g.Successors(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Successors(0) = %v, want [1 2]", got)
	}
	if got := g.Predecessors(3); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Predecessors(3) = %v, want [1 2]", got)
	}
	if got := len(g.Edges()); got != 4 {
		t.Fatalf("Edges() has %d edges, want 4", got)
	}
}
