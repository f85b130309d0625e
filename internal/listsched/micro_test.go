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

func microSetup(b *testing.B, m int) (*Mapper, schedule.Allocation, float64) {
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
	child := mutateRandom(rng, parent, m, tab.Procs())
	full, err := mp.Makespan(parent)
	if err != nil {
		b.Fatal(err)
	}
	return mp, child, full
}

func BenchmarkMicroFullRejected(b *testing.B) {
	mp, child, full := microSetup(b, 7)
	opt := Options{RejectAbove: full * 0.5, DisablePrefilter: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mp.MakespanOpts(child, opt)
	}
}

func BenchmarkMicroFullAccepted(b *testing.B) {
	mp, child, _ := microSetup(b, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mp.Makespan(child); err != nil {
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
