// Golden determinism corpus of the fitness-evaluation engine. The corpus in
// testdata/engine_golden.json was recorded from the engine that still carried
// the memo cache and the batch dispatchers, run with the memo cache switched
// off: the configuration in which every offspring reaches an evaluator, which
// is how the engine now evaluates every generation. Reproducing it field for
// field pins that deleting those layers changed no schedule, no search
// trajectory, and no counter.
//
// Regenerate it only for a deliberate change of search behavior:
//
//	go test -run TestEngineGoldenCorpus -update-golden .
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
	"emts/internal/model"
	"emts/internal/platform"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/engine_golden.json from the current engine")

const goldenPath = "testdata/engine_golden.json"

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
						res, err := core.Run(g, tab, p)
						if err != nil {
							t.Fatal(err)
						}
						run := goldenRun{
							Name: fmt.Sprintf("%s/%s/rejection=%v/workers=%d/islands=%d",
								g.Name(), pr.name, rejection, workers, islands),
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
						out = append(out, run)
					}
				}
			}
		}
	}
	return out
}

// TestEngineGoldenCorpus reproduces the recorded corpus exactly.
func TestEngineGoldenCorpus(t *testing.T) {
	got := goldenCorpus(t)
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
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenRun
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("corpus has %d runs, the grid produced %d", len(want), len(got))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s diverged from the golden corpus:\n got:  %+v\n want: %+v", want[i].Name, got[i], want[i])
		}
	}
}
