// Golden corpus of the allocation step. testdata/cpa_golden.json pins, for a
// grid of DAGGEN, FFT and Strassen graphs under both models on both paper
// clusters, one SHA-256 per (instance, allocator): over the allocation vector
// of CPA, MCPA, HCPA, MCPA2 and Δ-CP, and over every BiCPA.Sweep candidate
// (cluster size, allocation, makespan bits and work bits). It was recorded
// from the allocators that ran a full bottom-level sweep on every growth
// step, so reproducing it pins that the incremental bottom levels of the
// CPA loop choose the same task at every step.
//
// Regenerate it only for a deliberate change of allocation behavior. Name
// the package first: go test hands an unknown flag such as -update-golden,
// and every argument after it, to the test binary.
//
//	go test ./internal/alloc -run '^TestCPAGolden$' -update-golden
package alloc

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"emts/internal/dag"
	"emts/internal/daggen"
	"emts/internal/model"
	"emts/internal/platform"
	"emts/internal/schedule"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/cpa_golden.json from the current allocators")

// cpaGolden is one corpus entry: the SHA-256 of one allocator's output on
// one instance.
type cpaGolden struct {
	Name   string `json:"name"`
	Digest string `json:"sha256"`
}

// goldenGraph is one graph of the corpus with its name.
type goldenGraph struct {
	name string
	g    *dag.Graph
}

// goldenGraphs returns the corpus graphs: DAGGEN irregular graphs of 5 to
// 1,000 tasks with jump 1 to 3 (width, regularity and density vary with the
// index), FFT with 8 and 16 points, and Strassen.
func goldenGraphs(t *testing.T) []goldenGraph {
	t.Helper()
	var out []goldenGraph
	widths := []float64{0.2, 0.5, 0.8}
	i := 0
	for _, n := range []int{5, 10, 20, 50, 100, 200, 500, 1000} {
		for jump := 1; jump <= 3; jump++ {
			cfg := daggen.RandomConfig{
				N:          n,
				Width:      widths[i%3],
				Regularity: []float64{0.2, 0.8}[i%2],
				Density:    []float64{0.2, 0.8}[(i/2)%2],
				Jump:       jump,
			}
			g, err := daggen.Random(cfg, daggen.DefaultCosts(), int64(100+i))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, goldenGraph{fmt.Sprintf("random/n%d/j%d/w%g", n, jump, cfg.Width), g})
			i++
		}
	}
	for _, points := range []int{8, 16} {
		g, err := daggen.FFT(points, daggen.DefaultCosts(), int64(points))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, goldenGraph{fmt.Sprintf("fft%d", points), g})
	}
	g, err := daggen.Strassen(daggen.DefaultCosts(), 3)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, goldenGraph{"strassen", g})
}

// digestWriter accumulates little-endian words into a SHA-256.
type digestWriter struct{ buf bytes.Buffer }

func (d *digestWriter) word(x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	d.buf.Write(b[:])
}

func (d *digestWriter) alloc(a schedule.Allocation) {
	d.word(uint64(len(a)))
	for _, s := range a {
		d.word(uint64(s))
	}
}

func (d *digestWriter) sum() string {
	s := sha256.Sum256(d.buf.Bytes())
	return hex.EncodeToString(s[:])
}

// cpaGoldenCorpus runs every pinned allocator on every corpus instance.
func cpaGoldenCorpus(t *testing.T) []cpaGolden {
	t.Helper()
	allocators := []Allocator{CPA{}, MCPA{}, HCPA{}, MCPA2{}, DeltaCP{Delta: 0.9}}
	var corpus []cpaGolden
	for _, gg := range goldenGraphs(t) {
		for _, m := range []model.Model{model.Amdahl{}, model.Synthetic{}} {
			for _, c := range platform.Both() {
				tab := model.MustTable(gg.g, m, c)
				prefix := fmt.Sprintf("%s/%s/%s", gg.name, m.Name(), c.Name)
				for _, a := range allocators {
					got, err := a.Allocate(gg.g, tab)
					if err != nil {
						t.Fatalf("%s/%s: %v", prefix, a.Name(), err)
					}
					var d digestWriter
					d.alloc(got)
					corpus = append(corpus, cpaGolden{Name: prefix + "/" + a.Name(), Digest: d.sum()})
				}
				cands, err := BiCPA{}.Sweep(gg.g, tab)
				if err != nil {
					t.Fatalf("%s/bicpa: %v", prefix, err)
				}
				var d digestWriter
				d.word(uint64(len(cands)))
				for _, c := range cands {
					d.word(uint64(c.Q))
					d.alloc(c.Alloc)
					d.word(math.Float64bits(c.Makespan))
					d.word(math.Float64bits(c.Work))
				}
				corpus = append(corpus, cpaGolden{Name: prefix + "/bicpa-sweep", Digest: d.sum()})
			}
		}
	}
	return corpus
}

// TestCPAGolden reproduces testdata/cpa_golden.json entry by entry.
func TestCPAGolden(t *testing.T) {
	path := filepath.Join("testdata", "cpa_golden.json")
	got := cpaGoldenCorpus(t)
	if *updateGolden {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", " ")
		if err := enc.Encode(got); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d entries to %s", len(got), path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []cpaGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("corpus has %d entries, %s has %d", len(got), path, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: got %s, want %s (%s)", want[i].Name, got[i].Digest, want[i].Digest, got[i].Name)
		}
	}
}
