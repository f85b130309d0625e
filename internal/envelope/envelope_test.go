package envelope

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"emts/internal/dag"
	"emts/internal/daggen"
)

// TestScannerTakesClientBodies: the bodies clients send are in the
// scanner's subset, so the one-pass decoder is the common path, and it
// delimits exactly the graph bytes the client wrote.
func TestScannerTakesClientBodies(t *testing.T) {
	costs := daggen.DefaultCosts()
	for seed := int64(1); seed <= 6; seed++ {
		fft, err := daggen.FFT(8, costs, seed)
		if err != nil {
			t.Fatal(err)
		}
		strassen, err := daggen.Strassen(costs, seed)
		if err != nil {
			t.Fatal(err)
		}
		random, err := daggen.Random(daggen.RandomConfig{N: 20 + int(seed)*13, Width: 0.5, Regularity: 0.5, Density: 0.5, Jump: 1}, costs, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []*dag.Graph{fft, strassen, random} {
			// A request as emts-loadgen spells it: json.Marshal of a
			// ScheduleRequest around json.Marshal of a generated PTG.
			graph, err := json.Marshal(g)
			if err != nil {
				t.Fatal(err)
			}
			body, err := json.Marshal(ScheduleRequest{Graph: graph, Cluster: ClusterSpec{Preset: "grelon"},
				Model: "synthetic", Algorithm: "emts5", Seed: seed * 7919})
			if err != nil {
				t.Fatal(err)
			}
			req, ok := scan(body)
			if !ok {
				t.Fatalf("%s: scanner rejects the client body %s", g.Name(), body)
			}
			if !bytes.Equal(req.Graph, graph) || req.Cluster.Preset != "grelon" || req.Seed != seed*7919 {
				t.Fatalf("%s: scanner decoded %+v", g.Name(), req)
			}
		}
	}
}

// FuzzDecodeMatchesJSON is the differential check of the envelope fast
// path: whenever scan accepts a body, encoding/json (decodeJSON) accepts it
// too and decodes the identical request, and on every body Decode returns
// what decodeJSON returns, error text included.
func FuzzDecodeMatchesJSON(f *testing.F) {
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
		`{"graph":{"tasks":[{"flops":1}]},"priority":1}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ref, rerr := decodeJSON(data)
		if req, ok := scan(data); ok {
			if rerr != nil {
				t.Fatalf("scanner accepted what encoding/json rejects: %v", rerr)
			}
			if !sameRequest(req, ref) {
				t.Fatalf("scanner decoded %+v, encoding/json %+v", req, ref)
			}
		}
		req, err := Decode(data)
		if (err == nil) != (rerr == nil) || (err != nil && err.Error() != rerr.Error()) {
			t.Fatalf("Decode error %v, encoding/json %v", err, rerr)
		}
		if err == nil && !sameRequest(req, ref) {
			t.Fatalf("Decode decoded %+v, encoding/json %+v", req, ref)
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
