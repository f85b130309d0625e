// Golden determinism corpus of the fitness-evaluation engine. The corpus in
// testdata/engine_golden.json was recorded from the engine that still carried
// the memo cache and the batch dispatchers, run with the memo cache switched
// off: the configuration in which every offspring reaches an evaluator, which
// is how the engine now evaluates every generation. Reproducing it field for
// field pins that deleting those layers changed no schedule, no search
// trajectory, and no counter.
//
// testdata/engine_golden_strategies.json pins the strategy variants the
// presets leave untouched — self-adaptation, comma-selection and crossover —
// through the same core.Run path.
//
// testdata/engine_golden_platforms.json pins plain EMTS (rejection off) across
// both clusters and both execution-time models, on DAGGEN, FFT and Strassen
// graphs, so a claim that a change leaves results the same is checked beyond
// the Grelon and Model 2 cell the other two corpora cover.
//
// Regenerate a corpus only for a deliberate change of search behavior:
//
//	go test -run '^TestEngineGoldenCorpus$' -update-golden .
//	go test -run '^TestEngineGoldenCorpusStrategies$' -update-golden .
//	go test -run '^TestEngineGoldenCorpusPlatforms$' -update-golden .
package emts_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"

	"emts/internal/core"
	"emts/internal/dag"
	"emts/internal/daggen"
	"emts/internal/ea"
	"emts/internal/model"
	"emts/internal/platform"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden corpus of each test that runs from the current engine")

// goldenRun is one corpus entry: every search-visible output of one core.Run.
// Floats are stored as their IEEE-754 bits so the comparison is exact.
type goldenRun struct {
	Name                string   `json:"name"`
	MakespanBits        string   `json:"makespan_bits"`
	Alloc               []int    `json:"alloc"`
	HistoryBits         []string `json:"history_bits"`
	Evaluations         int      `json:"evaluations"`
	Rejections          int      `json:"rejections"`
	PrefilterRejections int      `json:"prefilter_rejections"`
	Generations         int      `json:"generations"`
}

func floatBits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

// runGolden runs core.Run and records its search-visible outputs under name.
func runGolden(t *testing.T, name string, g *dag.Graph, tab *model.Table, p core.Params) goldenRun {
	t.Helper()
	res, err := core.Run(g, tab, p)
	if err != nil {
		t.Fatal(err)
	}
	run := goldenRun{
		Name:                name,
		MakespanBits:        floatBits(res.Makespan),
		Alloc:               res.Alloc,
		Evaluations:         res.Evaluations,
		Rejections:          res.Rejections,
		PrefilterRejections: res.PrefilterRejections,
		Generations:         res.Generations,
	}
	for _, h := range res.History {
		run.HistoryBits = append(run.HistoryBits, floatBits(h))
	}
	return run
}

// goldenCorpus runs the corpus grid: determinismGraphs × {emts5, emts10} ×
// rejection {off, on} × Workers {1, 2, 8} × Islands {1, 3}.
func goldenCorpus(t *testing.T) []goldenRun {
	t.Helper()
	presets := []struct {
		name string
		mk   func(int64) core.Params
	}{{"emts5", core.EMTS5}, {"emts10", core.EMTS10}}
	var out []goldenRun
	for _, g := range determinismGraphs(t) {
		tab, err := model.NewTable(g, model.Synthetic{}, platform.Grelon())
		if err != nil {
			t.Fatal(err)
		}
		for _, pr := range presets {
			for _, rejection := range []bool{false, true} {
				for _, workers := range []int{1, 2, 8} {
					for _, islands := range []int{1, 3} {
						p := pr.mk(42)
						p.UseRejection = rejection
						p.Workers = workers
						p.Islands = islands
						out = append(out, runGolden(t, fmt.Sprintf("%s/%s/rejection=%v/workers=%d/islands=%d",
							g.Name(), pr.name, rejection, workers, islands), g, tab, p))
					}
				}
			}
		}
	}
	return out
}

// strategyCorpus runs the strategy grid: determinismGraphs × {self-adaptive,
// comma-selection, crossover 0.5} × rejection {off, on} × Islands {1, 3}, on
// EMTS5 with seed 42.
func strategyCorpus(t *testing.T) []goldenRun {
	t.Helper()
	variants := []struct {
		name string
		set  func(*core.Params)
	}{
		{"self-adaptive", func(p *core.Params) { p.SelfAdaptive = true }},
		{"comma", func(p *core.Params) { p.Strategy = ea.Comma }},
		{"crossover=0.5", func(p *core.Params) { p.CrossoverProb = 0.5 }},
	}
	var out []goldenRun
	for _, g := range determinismGraphs(t) {
		tab, err := model.NewTable(g, model.Synthetic{}, platform.Grelon())
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range variants {
			for _, rejection := range []bool{false, true} {
				for _, islands := range []int{1, 3} {
					p := core.EMTS5(42)
					v.set(&p)
					p.UseRejection = rejection
					p.Islands = islands
					out = append(out, runGolden(t, fmt.Sprintf("%s/emts5/%s/rejection=%v/islands=%d",
						g.Name(), v.name, rejection, islands), g, tab, p))
				}
			}
		}
	}
	return out
}

// namedGraph is a corpus graph with the name its entries are recorded under.
type namedGraph struct {
	name string
	g    *dag.Graph
}

// platformGraphs returns the platforms corpus graphs: six DAGGEN graphs of
// 20–100 tasks with jump 1–3, FFT of 2, 4, 8 and 16 points, and Strassen.
func platformGraphs(t *testing.T) []namedGraph {
	t.Helper()
	var out []namedGraph
	for i, n := range []int{20, 35, 50, 65, 80, 100} {
		cfg := daggen.RandomConfig{
			N:          n,
			Width:      []float64{0.2, 0.5, 0.8}[i%3],
			Regularity: []float64{0.2, 0.8}[i%2],
			Density:    []float64{0.2, 0.8}[(i/2)%2],
			Jump:       1 + i%3,
		}
		g, err := daggen.Random(cfg, daggen.DefaultCosts(), int64(200+i))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedGraph{fmt.Sprintf("random-n%d-j%d", n, cfg.Jump), g})
	}
	for _, points := range []int{2, 4, 8, 16} {
		g, err := daggen.FFT(points, daggen.DefaultCosts(), int64(points))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedGraph{fmt.Sprintf("fft%d", points), g})
	}
	g, err := daggen.Strassen(daggen.DefaultCosts(), 3)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, namedGraph{"strassen", g})
}

// platformCorpus runs the platforms grid: platformGraphs × {Chti, Grelon} ×
// {Amdahl, Synthetic} × {emts5, emts10, emts5 self-adaptive, emts5 crossover
// 0.5} × Islands {1, 4}, rejection off, seed 42.
func platformCorpus(t *testing.T) []goldenRun {
	t.Helper()
	variants := []struct {
		name string
		mk   func() core.Params
	}{
		{"emts5", func() core.Params { return core.EMTS5(42) }},
		{"emts10", func() core.Params { return core.EMTS10(42) }},
		{"emts5/self-adaptive", func() core.Params { p := core.EMTS5(42); p.SelfAdaptive = true; return p }},
		{"emts5/crossover=0.5", func() core.Params { p := core.EMTS5(42); p.CrossoverProb = 0.5; return p }},
	}
	models := []struct {
		name string
		m    model.Model
	}{{"amdahl", model.Amdahl{}}, {"synthetic", model.Synthetic{}}}
	var out []goldenRun
	for _, ng := range platformGraphs(t) {
		for _, c := range platform.Both() {
			for _, m := range models {
				tab, err := model.NewTable(ng.g, m.m, c)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range variants {
					for _, islands := range []int{1, 4} {
						p := v.mk()
						p.Islands = islands
						out = append(out, runGolden(t, fmt.Sprintf("%s/%s/%s/%s/islands=%d",
							ng.name, c.Name, m.name, v.name, islands), ng.g, tab, p))
					}
				}
			}
		}
	}
	return out
}

// checkGolden compares got with the corpus at path, run for run, or rewrites
// the file under -update-golden.
func checkGolden(t *testing.T, path string, got []goldenRun) {
	t.Helper()
	if *updateGolden {
		var buf bytes.Buffer
		buf.WriteString("[\n")
		for i, run := range got {
			line, err := json.Marshal(run)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
			if i < len(got)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("]\n")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenRun
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s has %d runs, the grid produced %d", path, len(want), len(got))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s diverged from %s:\n got:  %+v\n want: %+v", want[i].Name, path, got[i], want[i])
		}
	}
}

// TestEngineGoldenCorpus reproduces the recorded preset corpus exactly.
func TestEngineGoldenCorpus(t *testing.T) {
	checkGolden(t, "testdata/engine_golden.json", goldenCorpus(t))
}

// TestEngineGoldenCorpusStrategies reproduces the recorded strategy-variant
// corpus exactly.
func TestEngineGoldenCorpusStrategies(t *testing.T) {
	checkGolden(t, "testdata/engine_golden_strategies.json", strategyCorpus(t))
}

// TestEngineGoldenCorpusPlatforms reproduces the recorded platforms corpus
// exactly.
func TestEngineGoldenCorpusPlatforms(t *testing.T) {
	checkGolden(t, "testdata/engine_golden_platforms.json", platformCorpus(t))
}
