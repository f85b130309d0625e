// The request keys are pinned by a golden file: for every body in
// requestKeyBodies, testdata/request_keys.json holds either the cache key,
// graph key, canonical graph bytes and job ID the server derives, or the
// exact error text and field it answers with. The keys index the response
// cache, the interns and the job store, so a change that moves one silently
// invalidates every cache and job ID. Regenerate the file only for a
// deliberate change of the key derivation, package first:
//
//	go test ./internal/server -run '^TestRequestKeysGolden$' -update-golden
package server

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"emts/internal/daggen"
	"emts/internal/intern"
	"emts/internal/route"
)

// keyGraphBody is a two-task graph in the plain compact spelling.
const keyGraphBody = `{"name":"pair","tasks":[{"name":"a","flops":1e9,"alpha":0.1},{"name":"b","flops":2.5e9,"alpha":0.2,"data":100}],"edges":[[0,1]]}`

// requestKeyBodies are the golden bodies: plain and unusual spellings of
// accepted requests, and rejected ones.
func requestKeyBodies(t *testing.T) []struct{ name, body string } {
	fft, err := daggen.FFT(4, daggen.DefaultCosts(), 3)
	if err != nil {
		t.Fatal(err)
	}
	fftJSON, err := json.Marshal(fft)
	if err != nil {
		t.Fatal(err)
	}
	return []struct{ name, body string }{
		{"compact", `{"graph":` + keyGraphBody + `,"cluster":{"preset":"chti"},"model":"synthetic","algorithm":"emts5","seed":7}`},
		{"indented", "{\n  \"graph\": {\n    \"name\": \"pair\",\n    \"tasks\": [\n      {\"name\": \"a\", \"flops\": 1e9, \"alpha\": 0.1},\n" +
			"      {\"name\": \"b\", \"flops\": 2.5e9, \"alpha\": 0.2, \"data\": 100}\n    ],\n    \"edges\": [[0, 1]]\n  },\n" +
			"  \"cluster\": {\"preset\": \"chti\"},\n  \"model\": \"synthetic\",\n  \"algorithm\": \"emts5\",\n  \"seed\": 7\n}\n"},
		{"shuffled", `{"seed":7,"algorithm":"EMTS5","cluster":{"preset":"CHTI"},"graph":{"edges":[[0,1]],"tasks":[{"alpha":0.1,"flops":1000000000,"name":"a"},{"data":100,"alpha":0.2,"name":"b","flops":2500000000.0}],"name":"pair"}}`},
		{"generated-fft", `{"graph":` + string(fftJSON) + `,"cluster":{"preset":"grelon"},"model":"synthetic","algorithm":"emts5","seed":-12}`},
		{"html-name", `{"graph":{"name":"<g>&","tasks":[{"name":"a<b>&c","flops":1}]},"cluster":{"preset":"chti"}}`},
		{"escaped-name", `{"graph":{"name":"q\"uote\\","tasks":[{"name":"tab\there","flops":1}]},"cluster":{"preset":"chti"}}`},
		{"non-ascii-name", `{"graph":{"name":"héllo ☃","tasks":[{"name":"sep\u2028x","flops":1}]},"cluster":{"name":"grüne","procs":4,"speed_gflops":1}}`},
		{"uppercase-keys", `{"GRAPH":{"Tasks":[{"FLOPS":1,"Alpha":0.5}]},"Cluster":{"Preset":"chti"},"Seed":3}`},
		{"duplicate-keys", `{"graph":{"tasks":[{"flops":9}]},"seed":1,"cluster":{"preset":"chti"},"seed":2,"graph":{"tasks":[{"flops":1,"flops":2}]}}`},
		{"duplicate-cluster", `{"graph":{"tasks":[{"flops":1}]},"cluster":{"procs":4},"cluster":{"speed_gflops":2}}`},
		{"unknown-graph-keys", `{"graph":{"tasks":[{"flops":1,"color":"red"}],"meta":{"x":[1,2]},"edges":[]},"cluster":{"preset":"chti"}}`},
		{"nulls", `{"graph":{"name":null,"tasks":[{"flops":1,"alpha":null}],"edges":null},"cluster":{"preset":"chti"},"model":null,"seed":null}`},
		{"float-spellings", `{"graph":{"tasks":[{"flops":1e-7,"alpha":-0},{"flops":1e21,"alpha":0.5,"data":-0},{"flops":-0,"data":1E+2}],"edges":[[0,2],[1,2]]},"cluster":{"preset":"chti"}}`},
		{"no-edges", `{"graph":{"tasks":[{"flops":1},{"flops":2}]},"cluster":{"preset":"chti"},"algorithm":"mcpa"}`},
		{"inline-cluster", `{"graph":` + keyGraphBody + `,"cluster":{"name":"mini","procs":8,"speed_gflops":2.5},"model":"amdahl","timeout_ms":500}`},
		{"islands", `{"graph":` + keyGraphBody + `,"cluster":{"preset":"grelon"},"algorithm":"emts10","seed":5,"islands":4,"migration_interval":3}`},
		{"long-edge-pair", `{"graph":{"tasks":[{"flops":1},{"flops":1}],"edges":[[0,1,7]]},"cluster":{"preset":"chti"}}`},
		{"trailing-brace", `{"graph":` + keyGraphBody + `,"cluster":{"preset":"chti"}}}`},
		{"reject-trailing-data", `{"graph":` + keyGraphBody + `,"cluster":{"preset":"chti"}} {}`},
		{"reject-unknown-field", `{"graph":` + keyGraphBody + `,"cluster":{"preset":"chti"},"priority":1}`},
		{"reject-missing-graph", `{"cluster":{"preset":"chti"}}`},
		{"reject-null-graph", `{"graph":null,"cluster":{"preset":"chti"}}`},
		{"reject-graph-number", `{"graph":5,"cluster":{"preset":"chti"}}`},
		{"reject-float-seed", `{"graph":` + keyGraphBody + `,"cluster":{"preset":"chti"},"seed":1.5}`},
		{"reject-float-edge", `{"graph":{"tasks":[{"flops":1},{"flops":1}],"edges":[[0,1.0]]},"cluster":{"preset":"chti"}}`},
		{"reject-overflow-flops", `{"graph":{"tasks":[{"flops":1e400}]},"cluster":{"preset":"chti"}}`},
		{"reject-duplicate-edge", `{"graph":{"tasks":[{"flops":1},{"flops":1}],"edges":[[0,1],[0,1]]},"cluster":{"preset":"chti"}}`},
		{"reject-cycle", `{"graph":{"tasks":[{"flops":1},{"flops":1}],"edges":[[0,1],[1,0]]},"cluster":{"preset":"chti"}}`},
		{"reject-empty-graph", `{"graph":{"tasks":[]},"cluster":{"preset":"chti"}}`},
		{"reject-negative-islands", `{"graph":` + keyGraphBody + `,"cluster":{"preset":"chti"},"islands":-2}`},
		{"reject-unknown-preset", `{"graph":` + keyGraphBody + `,"cluster":{"preset":"summit"}}`},
		{"reject-not-json", `{"graph":`},
		{"alias-emts", `{"graph":` + keyGraphBody + `,"cluster":{"preset":"chti"},"model":"synthetic","algorithm":"emts","seed":7}`},
		{"alias-model2", `{"graph":` + keyGraphBody + `,"cluster":{"preset":"chti"},"model":"model2","algorithm":"emts5","seed":7}`},
		{"mixed-case-amdahl-eft", `{"graph":` + keyGraphBody + `,"cluster":{"preset":"chti"},"model":"AmDahl","algorithm":"Eft","seed":7}`},
		{"alias-model1", `{"graph":` + keyGraphBody + `,"cluster":{"preset":"chti"},"model":"model1","algorithm":"eft","seed":7}`},
		{"alias-onestep", `{"graph":` + keyGraphBody + `,"cluster":{"preset":"chti"},"model":"amdahl","algorithm":"OneStep","seed":7}`},
		{"mixed-case-delta-cp", `{"graph":` + keyGraphBody + `,"cluster":{"preset":"chti"},"model":"Synthetic","algorithm":"Delta-CP","seed":7}`},
		{"alias-deltacp", `{"graph":` + keyGraphBody + `,"cluster":{"preset":"chti"},"model":"synthetic","algorithm":"deltacp","seed":7}`},
		{"mixed-case-other-names", `{"graph":` + keyGraphBody + `,"cluster":{"preset":"grelon"},"model":"Synthetic-Monotone","algorithm":"MCPA2","seed":7}`},
		{"mixed-case-downey-emts10", `{"graph":` + keyGraphBody + `,"cluster":{"preset":"grelon"},"model":"DOWNEY","algorithm":"EMTS10","seed":7}`},
		{"random", `{"graph":` + keyGraphBody + `,"cluster":{"preset":"chti"},"algorithm":"random","seed":7}`},
		{"reject-unknown-algorithm", `{"graph":` + keyGraphBody + `,"cluster":{"preset":"chti"},"algorithm":"No-Such-Algo"}`},
		{"reject-unknown-model", `{"graph":` + keyGraphBody + `,"cluster":{"preset":"chti"},"model":"No-Such-Model"}`},
		{"reject-unknown-model-and-algorithm", `{"graph":` + keyGraphBody + `,"cluster":{"preset":"chti"},"model":"no-such-model","algorithm":"no-such-algo"}`},
	}
}

// requestKeys is one golden record: the derived keys of an accepted body,
// or the error of a rejected one.
type requestKeys struct {
	Name     string `json:"name"`
	Body     string `json:"body"`
	Key      string `json:"key,omitempty"`
	GraphKey string `json:"graph_key,omitempty"`
	Canon    string `json:"canon,omitempty"`
	JobID    string `json:"job_id,omitempty"`
	Error    string `json:"error,omitempty"`
	Field    string `json:"field,omitempty"`
}

// TestRequestKeysGolden derives the keys of every golden body, with and
// without the graph intern, and compares them with the golden file. For
// every body whose envelope the backend decodes, the router's shard key must
// be the RawKey the backend's graph intern looks the graph up under, which
// is also the leading component of the job ID.
func TestRequestKeysGolden(t *testing.T) {
	var got []requestKeys
	for _, c := range requestKeyBodies(t) {
		rec := requestKeys{Name: c.name, Body: c.body}
		if req, err := decodeScheduleRequest([]byte(c.body)); err == nil && len(req.Graph) > 0 {
			if shard, _ := route.RequestKey([]byte(c.body)); shard != intern.RawKey(req.Graph) {
				t.Errorf("%s: router shard key %x, backend intern RawKey %x", c.name, shard, intern.RawKey(req.Graph))
			}
		}
		p, err := parseScheduleRequest([]byte(c.body), 0, 0, nil)
		pi, erri := parseScheduleRequest([]byte(c.body), 0, 0, intern.NewGraphs(4))
		if (err == nil) != (erri == nil) || (err != nil && err.Error() != erri.Error()) {
			t.Fatalf("%s: intern changed the outcome: %v vs %v", c.name, err, erri)
		}
		if err != nil {
			rec.Error, rec.Field = err.Error(), errorField(err)
			got = append(got, rec)
			continue
		}
		if pi.key != p.key || pi.graphKey != p.graphKey {
			t.Fatalf("%s: intern changed the keys", c.name)
		}
		canon, err := json.Marshal(p.graph)
		if err != nil {
			t.Fatal(err)
		}
		raw := intern.RawKey(p.req.Graph)
		rec.Key, rec.GraphKey, rec.Canon = p.key, p.graphKey, string(canon)
		rec.JobID = hex.EncodeToString(raw[:]) + "-" + p.key
		got = append(got, rec)
	}

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "request_keys.json")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []requestKeys
	if err := json.Unmarshal(wantBytes, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%d golden records, %d bodies", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s:\n got %+v\nwant %+v", got[i].Name, got[i], want[i])
		}
	}
}

// errorField is the field writeParseError answers a parse failure with.
func errorField(err error) string {
	_, field := parseErrorDetail(err)
	return field
}
