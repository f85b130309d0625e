package alloc

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"emts/internal/dag"
	"emts/internal/daggen"
	"emts/internal/model"
	"emts/internal/platform"
	"emts/internal/schedule"
)

// growths returns the tasks a CPA loop grows, step by step, without (cpa)
// and with (mcpa) MCPA's level bound.
func growths(g *dag.Graph, tab *model.Table) (cpa, mcpa []dag.TaskID) {
	record := func(seq *[]dag.TaskID, next func(dag.TaskID, schedule.Allocation) dag.TaskID) func(dag.TaskID, schedule.Allocation) dag.TaskID {
		return func(v dag.TaskID, s schedule.Allocation) dag.TaskID {
			*seq = append(*seq, v)
			if next != nil {
				return next(v, s)
			}
			return -1
		}
	}
	newCPALoop(g, tab, nil, record(&cpa, nil)).grow(tab.Procs())
	b := newLevelBound(g, tab.Procs())
	newCPALoop(g, tab, b.growable, record(&mcpa, b.onGrow)).grow(tab.Procs())
	return cpa, mcpa
}

// pairBoth runs CPAPair with fork nil and with a fork that runs MCPA's rest
// on its own goroutine, checks that the two agree, and returns MCPA's and
// HCPA's allocations.
func pairBoth(t testing.TB, g *dag.Graph, tab *model.Table, h HCPA) (mcpa, hcpa schedule.Allocation) {
	t.Helper()
	mcpa, hcpa, err := CPAPair(g, tab, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan schedule.Allocation, 1)
	m2, h2, err := CPAPair(g, tab, h, func(rest func() schedule.Allocation) {
		go func() { done <- rest() }()
	})
	if err != nil {
		t.Fatal(err)
	}
	if m2 == nil {
		m2 = <-done
	}
	if !slices.Equal(m2, mcpa) || !slices.Equal(h2, hcpa) {
		t.Fatalf("CPAPair with a concurrent fork differs from a serial one")
	}
	return mcpa, hcpa
}

// TestCPAPairMatchesGolden checks the pair's two outputs against the MCPA and
// HCPA entries of testdata/cpa_golden.json on every corpus shape, and that
// the corpus covers shapes where MCPA forks early, late and never.
func TestCPAPairMatchesGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "cpa_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var entries []cpaGolden
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string, len(entries))
	for _, e := range entries {
		want[e.Name] = e.Digest
	}
	digest := func(a schedule.Allocation) string {
		var d digestWriter
		d.alloc(a)
		return d.sum()
	}
	// forks counts instances per cluster by where MCPA leaves CPA's steps.
	forks := map[string]map[string]int{}
	for _, gg := range goldenGraphs(t) {
		for _, m := range []model.Model{model.Amdahl{}, model.Synthetic{}} {
			for _, c := range platform.Both() {
				tab := model.MustTable(gg.g, m, c)
				prefix := fmt.Sprintf("%s/%s/%s", gg.name, m.Name(), c.Name)
				mcpa, hcpa := pairBoth(t, gg.g, tab, HCPA{})
				for name, got := range map[string]schedule.Allocation{"mcpa": mcpa, "hcpa": hcpa} {
					w, ok := want[prefix+"/"+name]
					if !ok {
						t.Fatalf("%s/%s: no golden entry", prefix, name)
					}
					if d := digest(got); d != w {
						t.Errorf("%s/%s: pair gives %s, golden %s", prefix, name, d, w)
					}
				}
				cpaSeq, mcpaSeq := growths(gg.g, tab)
				at := 0
				for at < len(cpaSeq) && at < len(mcpaSeq) && cpaSeq[at] == mcpaSeq[at] {
					at++
				}
				kind := "never"
				switch {
				case at == len(cpaSeq):
				case 4*at < len(cpaSeq):
					kind = "early"
				case 4*at >= 3*len(cpaSeq):
					kind = "late"
				default:
					kind = "middle"
				}
				if forks[c.Name] == nil {
					forks[c.Name] = map[string]int{}
				}
				forks[c.Name][kind]++
				if (kind == "never") != slices.Equal(mcpa, hcpa) {
					t.Errorf("%s: fork %s, but MCPA equal to HCPA is %v", prefix, kind, slices.Equal(mcpa, hcpa))
				}
			}
		}
	}
	t.Logf("where MCPA leaves CPA's steps: %v", forks)
	for _, kind := range []string{"early", "late", "never"} {
		if forks["chti"][kind]+forks["grelon"][kind] == 0 {
			t.Errorf("no corpus shape forks %s: %v", kind, forks)
		}
	}
	if forks["chti"]["never"] >= forks["grelon"]["never"] {
		t.Errorf("the bound should bind more often on Chti (20 processors) than on Grelon (120): %v", forks)
	}
}

// TestCPAPairChtiAndGrelonShapes runs the pair on scratch-sized DAGGEN graphs
// of 100 tasks like the benchmark's: on Chti the level bound binds on most,
// on Grelon on few.
func TestCPAPairChtiAndGrelonShapes(t *testing.T) {
	differ := map[string]int{}
	const graphs = 24
	for i := 0; i < graphs; i++ {
		g, err := daggen.Random(daggen.RandomConfig{N: 100, Width: 0.5, Regularity: 0.2, Density: 0.2, Jump: 2}, daggen.DefaultCosts(), int64(1000+i))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range platform.Both() {
			tab := model.MustTable(g, model.Synthetic{}, c)
			mcpa, hcpa := pairBoth(t, g, tab, HCPA{})
			wantM, _ := MCPA{}.Allocate(g, tab)
			wantH, _ := HCPA{}.Allocate(g, tab)
			if !slices.Equal(mcpa, wantM) || !slices.Equal(hcpa, wantH) {
				t.Fatalf("graph %d on %s: pair differs from the separate allocators", i, c.Name)
			}
			if !slices.Equal(mcpa, hcpa) {
				differ[c.Name]++
			}
		}
	}
	t.Logf("MCPA differs from HCPA on %d of %d graphs on Chti, %d on Grelon", differ["chti"], graphs, differ["grelon"])
	if differ["chti"] <= differ["grelon"] {
		t.Errorf("the bound should bind more often on Chti than on Grelon: %v", differ)
	}
}

func TestCPAPairRejectsMismatchedInputs(t *testing.T) {
	g := chain(t, 4, 1e9)
	other := chain(t, 5, 1e9)
	tab := model.MustTable(other, model.Amdahl{}, testCluster)
	if _, _, err := CPAPair(g, tab, HCPA{}, nil); err == nil {
		t.Fatal("mismatched table accepted")
	}
}

// checkPairMatchesSeparate builds a graph, cluster and model from seed and
// requires CPAPair to equal MCPA{}.Allocate and the HCPA's Allocate bit for
// bit, with a serial and a concurrent fork.
func checkPairMatchesSeparate(t testing.TB, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	g, err := daggen.Random(daggen.RandomConfig{
		N: 1 + rng.Intn(150), Width: 0.1 + 0.8*rng.Float64(), Regularity: rng.Float64(),
		Density: 0.05 + 0.95*rng.Float64(), Jump: 1 + rng.Intn(4),
	}, daggen.DefaultCosts(), seed)
	if err != nil {
		t.Fatal(err)
	}
	c := platform.Cluster{Name: "fuzz", Procs: 1 + rng.Intn(128), SpeedGFlops: 0.5 + 4*rng.Float64()}
	var m model.Model = model.Amdahl{}
	if rng.Intn(2) == 0 {
		m = model.Synthetic{}
	}
	tab := model.MustTable(g, m, c)
	h := HCPA{}
	if rng.Intn(4) == 0 {
		h = HCPA{ReferenceSpeedGFlops: 1 + 4*rng.Float64(), ClusterSpeedGFlops: c.SpeedGFlops}
	}
	mcpa, hcpa := pairBoth(t, g, tab, h)
	wantM, err := MCPA{}.Allocate(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	wantH, err := h.Allocate(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(mcpa, wantM) {
		t.Fatalf("seed %d: pair's MCPA %v, MCPA{}.Allocate %v", seed, mcpa, wantM)
	}
	if !slices.Equal(hcpa, wantH) {
		t.Fatalf("seed %d: pair's HCPA %v, %+v.Allocate %v", seed, hcpa, h, wantH)
	}
}

// FuzzCPAPairMatchesSeparate: on seeded graphs, clusters and models, the
// shared CPA pass returns exactly the separate allocators' MCPA and HCPA.
func FuzzCPAPairMatchesSeparate(f *testing.F) {
	for seed := int64(0); seed < 24; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkPairMatchesSeparate(t, seed)
	})
}
