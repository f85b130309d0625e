package dag

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"unicode/utf8"
)

// DecodeError is a typed validation failure of untrusted PTG input. Field
// names the offending JSON element in path syntax (e.g. "tasks[3].flops" or
// "edges[7]"), so servers can turn the error into a precise 400 response.
// DecodeError wraps the underlying sentinel (e.g. ErrCycle) when one exists.
type DecodeError struct {
	// Field is the JSON path of the offending element.
	Field string
	// Msg describes the violation.
	Msg string
	// Err is the underlying error, if any (e.g. ErrCycle).
	Err error
}

// Error implements error.
func (e *DecodeError) Error() string {
	return fmt.Sprintf("dag: invalid PTG: %s: %s", e.Field, e.Msg)
}

// Unwrap exposes the underlying sentinel to errors.Is.
func (e *DecodeError) Unwrap() error { return e.Err }

// decodeErrorf builds a DecodeError with a formatted field path.
func decodeErrorf(err error, field string, msg string, args ...interface{}) *DecodeError {
	return &DecodeError{Field: field, Msg: fmt.Sprintf(msg, args...), Err: err}
}

// fileGraph is the on-disk JSON representation of a PTG, the format read by
// the simulator (Section IV: "the simulator reads the description of the
// PTG"). Edges reference tasks by index.
type fileGraph struct {
	Name  string     `json:"name"`
	Tasks []fileTask `json:"tasks"`
	Edges [][2]int   `json:"edges"`
}

type fileTask struct {
	Name  string  `json:"name,omitempty"`
	Flops float64 `json:"flops"`
	Alpha float64 `json:"alpha"`
	Data  float64 `json:"data,omitempty"`
}

// MarshalJSON encodes the graph in the PTG file format. The bytes are
// canonical, a pure function of the graph: tasks in ID order, edges in
// (src, dst) order, and every value spelled as json.Marshal spells the file
// structure (its float format, and strings escaped HTML-safe), so that
// json.Marshal(g) and g.MarshalJSON() agree byte for byte. They are
// appended directly, without reflection.
func (g *Graph) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 48+96*len(g.tasks)+16*g.edges)
	b = append(b, `{"name":`...)
	b = AppendJSONString(b, g.name)
	b = append(b, `,"tasks":[`...)
	for i, t := range g.tasks {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		if t.Name != "" {
			b = append(b, `"name":`...)
			b = AppendJSONString(b, t.Name)
			b = append(b, ',')
		}
		for _, f := range [3]float64{t.Flops, t.Alpha, t.Data} {
			if math.IsInf(f, 0) || math.IsNaN(f) {
				return nil, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
			}
		}
		b = append(b, `"flops":`...)
		b = AppendJSONFloat(b, t.Flops)
		b = append(b, `,"alpha":`...)
		b = AppendJSONFloat(b, t.Alpha)
		if t.Data != 0 {
			b = append(b, `,"data":`...)
			b = AppendJSONFloat(b, t.Data)
		}
		b = append(b, '}')
	}
	b = append(b, `],"edges":`...)
	if g.edges == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for src := range g.tasks {
			for _, dst := range g.Successors(TaskID(src)) {
				b = append(b, '[')
				b = strconv.AppendInt(b, int64(src), 10)
				b = append(b, ',')
				b = strconv.AppendInt(b, int64(dst), 10)
				b = append(b, ']', ',')
			}
		}
		b[len(b)-1] = ']' // over the last edge's comma
	}
	return append(b, '}'), nil
}

// AppendJSONFloat appends the finite f as encoding/json encodes a float64:
// the shortest representation, in exponent form below 1e-6 and from 1e21
// on, with the exponent unpadded. MarshalJSON and emts-serve's response
// encoder write their floats with it.
func AppendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7, as encoding/json writes it.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// AppendJSONString appends s quoted as json.Marshal quotes a string: <, >
// and & escaped for HTML, control characters escaped, invalid UTF-8 replaced
// by U+FFFD, and U+2028 and U+2029 escaped. MarshalJSON and emts-serve's
// response encoder write their strings with it.
func AppendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// Write encodes the graph as indented JSON to w.
func (g *Graph) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(g)
}

// Read decodes a PTG from its JSON file format and validates it. The decoder
// treats its input as untrusted: cycles, out-of-range or duplicate edges,
// non-finite task weights and data after the PTG are rejected, the
// validation failures with a *DecodeError naming the offending field. Read
// consumes r to its end and decodes it with UnmarshalGraph.
func Read(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("dag: reading PTG: %w", err)
	}
	return UnmarshalGraph(data)
}

// UnmarshalGraph decodes a PTG from JSON bytes and validates it, with the
// same strict untrusted-input validation as Read. A PTG in the plain subset
// of JSON that the Scanner reads, such as MarshalJSON's output, is decoded
// in one pass; any other input goes through encoding/json, which alone
// decides whether it is accepted and with which error. Either way newGraph
// validates the decoded tasks and edges and builds the Graph from them.
func UnmarshalGraph(data []byte) (*Graph, error) {
	name, tasks, edges, ok := scanGraph(data)
	if !ok {
		var fg fileGraph
		if err := json.Unmarshal(data, &fg); err != nil {
			return nil, fmt.Errorf("dag: decoding PTG: %w", err)
		}
		name, tasks, edges = fg.content()
	}
	return newGraph(name, tasks, edges)
}

// content returns what newGraph takes: the name, the tasks, and the edges'
// endpoints in pairs.
func (fg *fileGraph) content() (name string, tasks []Task, edges []int) {
	tasks = make([]Task, len(fg.Tasks))
	for i, t := range fg.Tasks {
		tasks[i] = Task{Name: t.Name, Flops: t.Flops, Alpha: t.Alpha, Data: t.Data}
	}
	edges = make([]int, 0, 2*len(fg.Edges))
	for _, e := range fg.Edges {
		edges = append(edges, e[0], e[1])
	}
	return fg.Name, tasks, edges
}

// Keys of the PTG file format, for Scanner.Fields.
var (
	graphFields = []string{"name", "tasks", "edges"}
	taskFields  = []string{"name", "flops", "alpha", "data"}
)

// scanGraph decodes data with a Scanner into what json.Unmarshal would
// decode into the file structure: the name, the tasks, and the edges'
// endpoints in pairs. It reports false, and the caller falls back to
// encoding/json, when data leaves the Scanner's subset or has a key that is
// not a field name spelled exactly, a repeated key or an edge that is not a
// pair: encoding/json matches keys case-insensitively, ignores unknown
// ones, keeps the last of repeated ones, and truncates or pads edges.
func scanGraph(data []byte) (name string, tasks []Task, edges []int, ok bool) {
	s := NewScanner(data)
	var t Task
	task := func(name string) bool {
		var ok bool
		switch name {
		case "name":
			t.Name, ok = s.String()
		case "flops":
			t.Flops, ok = s.Float()
		case "alpha":
			t.Alpha, ok = s.Float()
		case "data":
			t.Data, ok = s.Float()
		}
		return ok
	}
	n := 0 // endpoints read of the current edge
	endpoint := func() bool {
		v, ok := s.Int()
		if n++; n > 2 {
			return false
		}
		edges = append(edges, v)
		return ok
	}
	ok = s.Fields(graphFields, func(field string) bool {
		switch field {
		case "name":
			var ok bool
			name, ok = s.String()
			return ok
		case "tasks":
			return s.Array(func() bool {
				t = Task{}
				if !s.Fields(taskFields, task) {
					return false
				}
				tasks = append(tasks, t)
				return true
			})
		default: // "edges"
			return s.Array(func() bool {
				n = 0
				return s.Array(endpoint) && n == 2
			})
		}
	})
	return name, tasks, edges, ok && s.End()
}

// newGraph validates decoded PTG content field by field, so every rejection
// carries a JSON path, and builds the Graph from it: tasks become its task
// list, and edges holds the edges' endpoints in pairs. The tasks are checked
// in order, then the edges, and the first failing field is reported: an
// endpoint out of range, a self-loop, or a repeat of an earlier edge. Both
// adjacency directions are built by counting sort, which also brings
// repeated edges together, so no per-edge set is kept.
func newGraph(name string, tasks []Task, edges []int) (*Graph, error) {
	n := len(tasks)
	for i := range tasks {
		t := &tasks[i]
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
		t.ID = TaskID(i)
	}
	// m is the number of edges before the first one with an endpoint out of
	// range or a self-loop: only those can be reported as repeats.
	m := len(edges) / 2
	for i := 0; i < m; i++ {
		if src, dst := edges[2*i], edges[2*i+1]; src < 0 || src >= n || dst < 0 || dst >= n || src == dst {
			m = i
			break
		}
	}
	g := &Graph{name: name, tasks: tasks, edges: m}
	off := make([]int32, 2*(n+1))
	g.succOff, g.predOff = off[:n+1:n+1], off[n+1:]
	for i := 0; i < m; i++ {
		g.succOff[edges[2*i]+1]++
		g.predOff[edges[2*i+1]+1]++
	}
	for v := 0; v < n; v++ {
		g.succOff[v+1] += g.succOff[v]
		g.predOff[v+1] += g.predOff[v]
	}
	// Edge indices, sorted stably by destination into byDst and then by
	// source into bySrc: bySrc is in (source, destination) order, with
	// repeats of one edge together in input order.
	scratch := make([]int32, n+2*m)
	next, byDst, bySrc := scratch[:n], scratch[n:n+m], scratch[n+m:]
	copy(next, g.predOff)
	for i := 0; i < m; i++ {
		dst := edges[2*i+1]
		byDst[next[dst]] = int32(i)
		next[dst]++
	}
	copy(next, g.succOff)
	for _, i := range byDst {
		src := edges[2*i]
		bySrc[next[src]] = i
		next[src]++
	}
	// The first repeat is the smallest index that follows an equal edge.
	dup := m
	for k := 1; k < m; k++ {
		i, prev := bySrc[k], bySrc[k-1]
		if int(i) < dup && edges[2*i] == edges[2*prev] && edges[2*i+1] == edges[2*prev+1] {
			dup = int(i)
		}
	}
	if dup < m {
		return nil, decodeErrorf(nil, fmt.Sprintf("edges[%d]", dup), "duplicate edge (%d,%d)", edges[2*dup], edges[2*dup+1])
	}
	if m < len(edges)/2 {
		field := fmt.Sprintf("edges[%d]", m)
		switch src, dst := edges[2*m], edges[2*m+1]; {
		case src < 0 || src >= n:
			return nil, decodeErrorf(nil, field, "source %d out of range (have %d tasks)", src, n)
		case dst < 0 || dst >= n:
			return nil, decodeErrorf(nil, field, "destination %d out of range (have %d tasks)", dst, n)
		default:
			return nil, decodeErrorf(nil, field, "self-loop on task %d", src)
		}
	}
	adj := make([]TaskID, 2*m)
	g.succAdj, g.predAdj = adj[:m:m], adj[m:]
	copy(next, g.predOff)
	for k, i := range bySrc {
		src, dst := edges[2*i], edges[2*i+1]
		g.succAdj[k] = TaskID(dst)
		g.predAdj[next[dst]] = TaskID(src)
		next[dst]++
	}
	g.indeg = make([]int, n)
	for v := range g.indeg {
		g.indeg[v] = int(g.predOff[v+1] - g.predOff[v])
	}
	topo, err := g.computeTopo()
	if err != nil {
		return nil, decodeErrorf(ErrCycle, "edges", "graph contains a cycle")
	}
	g.topo = topo
	return g, nil
}

// DOT renders the graph in Graphviz DOT syntax. Node labels show the task name
// (or ID) and the cost in GFLOP.
func (g *Graph) DOT() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", safeDOTName(g.name))
	sb.WriteString("  rankdir=TB;\n  node [shape=box];\n")
	for _, t := range g.tasks {
		label := t.Name
		if label == "" {
			label = fmt.Sprintf("v%d", t.ID)
		}
		fmt.Fprintf(&sb, "  n%d [label=\"%s\\n%.2f GFLOP\"];\n", t.ID, label, t.Flops/1e9)
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&sb, "  n%d -> n%d;\n", e.Src, e.Dst)
	}
	sb.WriteString("}\n")
	return sb.String()
}

func safeDOTName(name string) string {
	if name == "" {
		return "ptg"
	}
	return name
}
