package listsched

import (
	"fmt"
	"math/rand"
	"testing"

	"emts/internal/daggen"
	"emts/internal/model"
	"emts/internal/platform"
	"emts/internal/schedule"
)

// microSetup returns a Mapper for a 100-task irregular PTG on Grelon under
// Model 2, children distinct children of one random parent, each with m
// positions mutated, and the parent's makespan.
func microSetup(b *testing.B, m, children int) (*Mapper, []schedule.Allocation, float64) {
	b.Helper()
	g, err := daggen.Random(daggen.RandomConfig{
		N: 100, Width: 0.5, Regularity: 0.5, Density: 0.5, Jump: 2,
	}, daggen.DefaultCosts(), 7)
	if err != nil {
		b.Fatal(err)
	}
	tab := model.MustTable(g, model.Synthetic{}, platform.Grelon())
	mp, err := NewMapper(g, tab)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	parent := schedule.Ones(g.NumTasks())
	for i := range parent {
		parent[i] = 1 + rng.Intn(tab.Procs())
	}
	kids := make([]schedule.Allocation, children)
	for i := range kids {
		kids[i] = mutateRandom(rng, parent, m, tab.Procs())
	}
	full, err := mp.Makespan(parent)
	if err != nil {
		b.Fatal(err)
	}
	return mp, kids, full
}

func BenchmarkMicroFullRejected(b *testing.B) {
	mp, kids, full := microSetup(b, 7, 1)
	opt := Options{RejectAbove: full * 0.5, DisablePrefilter: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mp.MakespanOpts(kids[0], opt)
	}
}

func BenchmarkMicroFullAccepted(b *testing.B) {
	mp, kids, _ := microSetup(b, 7, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mp.Makespan(kids[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroFullDistinct maps 256 distinct children of one parent in
// turn, as an EA generation maps its offspring. Mapping one allocation over
// and over, as BenchmarkMicroFullAccepted does, lets the branch predictor
// learn the ready heap's and the profile's data-dependent branches; here it
// cannot, so this is the map loop's cost on the fitness path.
func BenchmarkMicroFullDistinct(b *testing.B) {
	mp, kids, _ := microSetup(b, 7, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mp.Makespan(kids[i%len(kids)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapperProcs times a warm Mapper.Makespan as the cluster grows, on
// 100- and 300-task irregular PTGs under Model 2. The random allocation is
// the EA's typical individual; all-ones lets every task leave its own free
// time behind, which is the most distinct free times a map can produce.
func BenchmarkMapperProcs(b *testing.B) {
	for _, n := range []int{100, 300} {
		g, err := daggen.Random(daggen.RandomConfig{
			N: n, Width: 0.5, Regularity: 0.5, Density: 0.5, Jump: 2,
		}, daggen.DefaultCosts(), 7)
		if err != nil {
			b.Fatal(err)
		}
		for _, procs := range []int{20, 120, 1000} {
			tab := model.MustTable(g, model.Synthetic{}, platform.Cluster{Name: "bench", Procs: procs, SpeedGFlops: 3.1})
			mp, err := NewMapper(g, tab)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			random := make(schedule.Allocation, n)
			for i := range random {
				random[i] = 1 + rng.Intn(procs)
			}
			for _, a := range []struct {
				name  string
				alloc schedule.Allocation
			}{{"random", random}, {"ones", schedule.Ones(n)}} {
				b.Run(fmt.Sprintf("V%d/P%d/%s", n, procs, a.name), func(b *testing.B) {
					if _, err := mp.Makespan(a.alloc); err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := mp.Makespan(a.alloc); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
