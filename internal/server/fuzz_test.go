package server

import (
	"bytes"
	"testing"

	"emts/internal/envelope"
	"emts/internal/intern"
	"emts/internal/route"
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
		if p.plan == nil || p.plan.Model == nil || p.plan.ModelName == "" || p.plan.Algorithm == "" {
			t.Fatal("accepted request without a resolved plan")
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

// FuzzScanScheduleRequest checks that the parse result does not depend on
// which decoder delimited the graph. envelope's FuzzDecodeMatchesJSON
// checks that its one-pass scanner and encoding/json decode the same
// request; the scanner's Graph aliases the body, encoding/json's is a copy.
// So parseScheduleRequest must answer exactly as validateScheduleRequest
// over the decoded request with its graph copied out of the body, and
// reject an envelope Decode rejects with Decode's text on the body field.
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
		p, err := parseScheduleRequest(data, 1000, 8, nil)
		var ref *parsedRequest
		req, rerr := envelope.Decode(data)
		if rerr != nil {
			rerr = &RequestError{Field: "body", Msg: rerr.Error()}
		} else {
			req.Graph = bytes.Clone(req.Graph)
			ref, rerr = validateScheduleRequest(req, 1000, 8, nil)
		}
		if (err == nil) != (rerr == nil) {
			t.Fatalf("graph aliasing changed acceptance: %v vs reference %v", err, rerr)
		}
		if err != nil {
			if err.Error() != rerr.Error() || errorField(err) != errorField(rerr) {
				t.Fatalf("graph aliasing changed the error: %v (%s) vs reference %v (%s)", err, errorField(err), rerr, errorField(rerr))
			}
			return
		}
		if p.key != ref.key || p.graphKey != ref.graphKey || p.plan.ModelName != ref.plan.ModelName || p.plan.Algorithm != ref.plan.Algorithm ||
			p.cluster != ref.cluster || !bytes.Equal(p.req.Graph, ref.req.Graph) {
			t.Fatalf("graph aliasing changed the parsed request: %+v vs reference %+v", p, ref)
		}
	})
}

// FuzzRouterKeyMatchesIntern is the differential check of the router's
// shard key against the backend: whenever parseScheduleRequest accepts a
// body, route.RequestKey returns the RawKey the graph intern looks the graph
// up under, and that digest leads the job ID, so JobKey recovers it from
// every job path. Whenever envelope.Decode rejects a body or finds no graph
// in it, the key is the whole body's RawKey with ErrNoGraph.
func FuzzRouterKeyMatchesIntern(f *testing.F) {
	seeds := []string{
		`{"graph":{"tasks":[{"flops":1}]},"cluster":{"preset":"chti"}}`,
		`{"graph":{"tasks":[{"flops":1}]},"cluster":{"preset":"chti"}}}`,
		`{"graph":{"tasks":[{"flops":1}]},"cluster":{"preset":"chti"}} {}`,
		`{"GRAPH":{"tasks":[{"flops":1}]},"Cluster":{"preset":"chti"},"seed":1,"seed":2}`,
		`{"graph":{"tasks":[{"flops":9}]},"graph":{"tasks":[{"flops":1}]},"cluster":{"preset":"chti"}}`,
		`{"graph":{"tasks":[{"flops":1}]},"cluster":{"preset":"chti"},"priority":1}`,
		`{"cluster":{"preset":"chti"}}`,
		`{"graph":null,"cluster":{"preset":"chti"}}`,
		`{"graph":`,
		`[1,2,3]`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		key, err := route.RequestKey(data)
		if p, perr := parseScheduleRequest(data, 1000, 8, nil); perr == nil {
			if err != nil || key != intern.RawKey(p.req.Graph) {
				t.Fatalf("accepted body: router key %x (%v), backend intern RawKey %x", key, err, intern.RawKey(p.req.Graph))
			}
			id := p.jobID()
			if jk, ok := route.JobKey("/v1/jobs/" + id + "/events"); !ok || jk != key {
				t.Fatalf("job ID %s does not lead with the router key", id)
			}
		}
		if req, derr := envelope.Decode(data); derr != nil || len(req.Graph) == 0 {
			if err != route.ErrNoGraph || key != intern.RawKey(data) {
				t.Fatalf("graphless envelope: key %x (%v), want the body's RawKey %x and ErrNoGraph", key, err, intern.RawKey(data))
			}
		}
	})
}
