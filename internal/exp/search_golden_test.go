// Golden corpus of the sampling code outside the EA: testdata/search_golden.json
// pins, for a few seeded instances, the result of every search method
// (hill climbing, simulated annealing and random search, plus hill climbing
// and annealing with non-default operators) at the EMTS5 and EMTS10 budgets,
// started from MCPA's allocation and from a random one, and the sampled
// counts of Figure 3. Each search result is the SHA-256 of the best
// allocation with its fitness bits, the evaluation count and the accepted
// moves. The methods and Figure 3 draw every random number through the
// mutation operator's stream, so reproducing the file pins that stream and
// the operators' draws.
//
// Regenerate it only for a deliberate change of sampling behavior. Name the
// package first: go test hands an unknown flag such as -update-golden, and
// every argument after it, to the test binary.
//
//	go test ./internal/exp -run '^TestSearchFigure3Golden$' -update-golden
package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"emts/internal/alloc"
	"emts/internal/daggen"
	"emts/internal/ea"
	"emts/internal/listsched"
	"emts/internal/model"
	"emts/internal/platform"
	"emts/internal/schedule"
	"emts/internal/search"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/search_golden.json from the current search methods and Figure 3")

// searchGolden is the golden file: one digest per search run and the counts
// of each Figure 3 sample.
type searchGolden struct {
	Search  []searchEntry  `json:"search"`
	Figure3 []figure3Entry `json:"figure3"`
}

// searchEntry is one method's run on one instance.
type searchEntry struct {
	Name   string `json:"name"`
	Digest string `json:"sha256"`
}

// figure3Entry is Figure 3's count of each adjustment in [Lo, Hi].
type figure3Entry struct {
	Samples int   `json:"samples"`
	Seed    int64 `json:"seed"`
	Lo      int   `json:"lo"`
	Counts  []int `json:"counts"`
}

// goldenSearchMethods are the default methods plus two with other operators
// and step sizes, so that both of ea's operators are sampled, by name.
func goldenSearchMethods() map[string]search.Method {
	out := map[string]search.Method{
		"hillclimb-uniform3": search.HillClimber{Mutations: 3, Mutator: ea.UniformMutator{}},
		"anneal-paper4":      search.Annealer{Mutations: 4, Mutator: ea.PaperMutator{A: 0.4, Sigma1: 2, Sigma2: 9}},
	}
	for _, m := range search.Methods() {
		out[m.Name()] = m
	}
	return out
}

// searchGoldenCorpus runs every method on every instance and samples
// Figure 3.
func searchGoldenCorpus(t *testing.T) searchGolden {
	t.Helper()
	var out searchGolden
	instances := []struct {
		name    string
		n       int
		seed    int64
		m       model.Model
		c       platform.Cluster
		budgets []int
	}{
		{"random/n40", 40, 11, model.Amdahl{}, platform.Chti(), []int{130, 1010}},
		{"random/n100", 100, 12, model.Synthetic{}, platform.Grelon(), []int{130, 1010}},
		{"random/n70", 70, 13, model.Synthetic{}, platform.Chti(), []int{130}},
	}
	for i, in := range instances {
		cfg := daggen.RandomConfig{N: in.n, Width: 0.5, Regularity: 0.2, Density: 0.5, Jump: 2}
		g, err := daggen.Random(cfg, daggen.DefaultCosts(), in.seed)
		if err != nil {
			t.Fatal(err)
		}
		tab := model.MustTable(g, in.m, in.c)
		mcpa, err := alloc.MCPA{}.Allocate(g, tab)
		if err != nil {
			t.Fatal(err)
		}
		mapper, err := listsched.NewMapper(g, tab)
		if err != nil {
			t.Fatal(err)
		}
		fitness := func(a schedule.Allocation, _ float64) (float64, error) { return mapper.Makespan(a) }
		starts := []struct {
			name  string
			seeds []schedule.Allocation
		}{{"mcpa", []schedule.Allocation{mcpa}}, {"random", nil}}
		for _, budget := range in.budgets {
			for _, st := range starts {
				methods := goldenSearchMethods()
				for _, label := range slices.Sorted(maps.Keys(methods)) {
					seed := int64(100*i + budget)
					res, err := methods[label].Optimize(g.NumTasks(), tab.Procs(), st.seeds, fitness, budget, seed)
					name := fmt.Sprintf("%s/%s/%s/%s/b%d/%s", in.name, in.m.Name(), in.c.Name, st.name, budget, label)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					var buf bytes.Buffer
					word := func(x uint64) { buf.Write(binary.LittleEndian.AppendUint64(nil, x)) }
					word(uint64(len(res.Best.Alloc)))
					for _, s := range res.Best.Alloc {
						word(uint64(s))
					}
					word(math.Float64bits(res.Best.Fitness))
					word(uint64(res.Evaluations))
					word(uint64(res.Accepted))
					sum := sha256.Sum256(buf.Bytes())
					out.Search = append(out.Search, searchEntry{Name: name, Digest: hex.EncodeToString(sum[:])})
				}
			}
		}
	}
	for _, s := range []struct {
		samples int
		seed    int64
	}{{200000, 7}, {50000, 1}} {
		res, err := Figure3(s.samples, s.seed)
		if err != nil {
			t.Fatal(err)
		}
		e := figure3Entry{Samples: s.samples, Seed: s.seed, Lo: res.Lo}
		for _, p := range res.Empirical {
			e.Counts = append(e.Counts, int(math.Round(p*float64(s.samples))))
		}
		out.Figure3 = append(out.Figure3, e)
	}
	return out
}

// TestSearchFigure3Golden reproduces testdata/search_golden.json entry by
// entry.
func TestSearchFigure3Golden(t *testing.T) {
	path := filepath.Join("testdata", "search_golden.json")
	got := searchGoldenCorpus(t)
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
		t.Logf("wrote %d search entries and %d Figure 3 samples to %s", len(got.Search), len(got.Figure3), path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want searchGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got.Search) != len(want.Search) || len(got.Figure3) != len(want.Figure3) {
		t.Fatalf("corpus has %d search entries and %d Figure 3 samples, %s has %d and %d",
			len(got.Search), len(got.Figure3), path, len(want.Search), len(want.Figure3))
	}
	for i := range want.Search {
		if got.Search[i] != want.Search[i] {
			t.Errorf("%s: got %s, want %s (%s)", want.Search[i].Name, got.Search[i].Digest, want.Search[i].Digest, got.Search[i].Name)
		}
	}
	for i, w := range want.Figure3 {
		g := got.Figure3[i]
		if g.Samples != w.Samples || g.Seed != w.Seed || g.Lo != w.Lo || !slices.Equal(g.Counts, w.Counts) {
			t.Errorf("Figure 3 (%d samples, seed %d): got counts %v from %d, want %v from %d", w.Samples, w.Seed, g.Counts, g.Lo, w.Counts, w.Lo)
		}
	}
}
