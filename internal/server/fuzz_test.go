package server

import (
	"bytes"
	"math"
	"testing"

	"emts/internal/intern"
)

// FuzzDecodeScheduleRequest hammers the /v1/schedule request decoder: it must
// never panic, and whatever it accepts must be internally consistent (resolved
// cluster, canonical key, acyclic graph with in-range edges).
func FuzzDecodeScheduleRequest(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"graph":{"tasks":[{"flops":1}]},"cluster":{"preset":"chti"}}`,
		`{"graph":{"tasks":[{"flops":1,"alpha":0.5},{"flops":2}],"edges":[[0,1]]},"cluster":{"procs":4,"speed_gflops":2.5},"model":"amdahl","algorithm":"emts10","seed":7,"timeout_ms":100}`,
		`{"graph":{"tasks":[{"flops":1},{"flops":1}],"edges":[[0,1],[1,0]]},"cluster":{"preset":"chti"}}`,
		`{"graph":{"tasks":[],"edges":[]},"cluster":{"preset":"grelon"}}`,
		`{"graph":{"tasks":[{"flops":-1}]},"cluster":{"preset":"chti"}}`,
		`{"graph":{"tasks":[{"flops":1,"alpha":2}]},"cluster":{"preset":"chti"}}`,
		`{"graph":{"tasks":[{"flops":1}],"edges":[[0,0]]},"cluster":{"preset":"chti"}}`,
		`[1,2,3]`,
		`nonsense`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	graphs := intern.NewGraphs(16)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := parseScheduleRequest(data, 1000, 0, nil)
		// The interned path must accept and reject exactly the same inputs and
		// produce the same canonical key.
		pi, erri := parseScheduleRequest(data, 1000, 0, graphs)
		if (err == nil) != (erri == nil) {
			t.Fatalf("intern changed acceptance: plain err=%v, interned err=%v", err, erri)
		}
		if err != nil {
			return
		}
		if pi.key != p.key || pi.graphKey != p.graphKey {
			t.Fatalf("intern changed canonical keys: %s/%s vs %s/%s", p.key, p.graphKey, pi.key, pi.graphKey)
		}
		// Accepted requests must be fully resolved.
		if p.graph == nil || p.graph.NumTasks() == 0 {
			t.Fatal("accepted request with empty graph")
		}
		if p.cluster.Procs <= 0 || p.cluster.SpeedGFlops <= 0 {
			t.Fatalf("accepted request with unresolved cluster %+v", p.cluster)
		}
		if p.model == "" || p.algorithm == "" {
			t.Fatal("accepted request without model/algorithm defaults")
		}
		if len(p.key) != 64 {
			t.Fatalf("canonical key %q is not a sha256 hex digest", p.key)
		}
		n := p.graph.NumTasks()
		for _, e := range p.graph.Edges() {
			if e.Src < 0 || int(e.Src) >= n || e.Dst < 0 || int(e.Dst) >= n {
				t.Fatalf("edge %v out of range for %d tasks", e, n)
			}
		}
		if _, err := p.graph.TopologicalOrder(); err != nil {
			t.Fatalf("accepted cyclic graph: %v", err)
		}
	})
}

// FuzzScanScheduleRequest is the differential check of the envelope fast
// path: whenever scanScheduleRequest accepts a body, encoding/json
// (decodeScheduleRequest) accepts it too and decodes the identical request,
// and parseScheduleRequest returns the same result or error as the reference
// path that skips the scanner.
func FuzzScanScheduleRequest(f *testing.F) {
	seeds := []string{
		`{"graph":{"tasks":[{"flops":1}]},"cluster":{"preset":"chti"}}`,
		`{"graph":{"name":"g","tasks":[{"name":"a","flops":1e9,"alpha":0.5},{"flops":2,"data":8}],"edges":[[0,1]]},"cluster":{"name":"c","procs":4,"speed_gflops":2.5},"model":"amdahl","algorithm":"emts10","seed":-7,"timeout_ms":100,"islands":3,"migration_interval":2}`,
		` { "seed" : 1 , "graph" : { "tasks" : [ { "flops" : 1 } ] } , "cluster" : { "preset" : "grelon" } } `,
		`{"graph":{"tasks":[{"flops":1}]},"cluster":{"preset":"chti"}}}`,
		`{"graph":{"tasks":[{"flops":1}]},"cluster":{"preset":"chti"}} {}`,
		`{"Graph":{"tasks":[{"flops":1}]},"cluster":{"preset":"chti"},"seed":1,"seed":2}`,
		`{"graph":[1,"x",{"y":2}],"cluster":{"preset":"chti"},"seed":1e3}`,
		`{"graph":{"tasks":[{"flops":1}]},"cluster":{"procs":99999999999999999999}}`,
		`{"graph":"abc","cluster":{"preset":"chti"},"model":null}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, ok := scanScheduleRequest(data); ok {
			ref, err := decodeScheduleRequest(data)
			if err != nil {
				t.Fatalf("scanner accepted what encoding/json rejects: %v", err)
			}
			if !sameRequest(req, ref) {
				t.Fatalf("scanner decoded %+v, encoding/json %+v", req, ref)
			}
		}
		p, err := parseScheduleRequest(data, 1000, 8, nil)
		var ref *parsedRequest
		req, rerr := decodeScheduleRequest(data)
		if rerr == nil {
			ref, rerr = validateScheduleRequest(req, 1000, 8, nil)
		}
		if (err == nil) != (rerr == nil) {
			t.Fatalf("scanner changed acceptance: %v vs reference %v", err, rerr)
		}
		if err != nil {
			if err.Error() != rerr.Error() || errorField(err) != errorField(rerr) {
				t.Fatalf("scanner changed the error: %v (%s) vs reference %v (%s)", err, errorField(err), rerr, errorField(rerr))
			}
			return
		}
		if p.key != ref.key || p.graphKey != ref.graphKey || p.model != ref.model || p.algorithm != ref.algorithm ||
			p.cluster != ref.cluster || !sameRequest(p.req, ref.req) {
			t.Fatalf("scanner changed the parsed request: %+v vs reference %+v", p, ref)
		}
	})
}

// sameRequest reports whether two decoded envelopes are identical, float
// bits and raw graph bytes included.
func sameRequest(a, b ScheduleRequest) bool {
	ca, cb := a.Cluster, b.Cluster
	ca.SpeedGFlops, cb.SpeedGFlops = 0, 0
	return bytes.Equal(a.Graph, b.Graph) && (a.Graph == nil) == (b.Graph == nil) && ca == cb &&
		math.Float64bits(a.Cluster.SpeedGFlops) == math.Float64bits(b.Cluster.SpeedGFlops) &&
		a.Model == b.Model && a.Algorithm == b.Algorithm && a.Seed == b.Seed && a.TimeoutMS == b.TimeoutMS &&
		a.Islands == b.Islands && a.MigrationInterval == b.MigrationInterval
}
