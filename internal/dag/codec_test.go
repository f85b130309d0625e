package dag

import (
	"errors"
	"math"
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
// encoding/json cannot produce NaN or Inf from a document, but the validation
// layer guards programmatic fileGraph construction all the same.
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
			_, err := fromFileGraph(tc.fg)
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
