package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"emts/internal/alloc"
	"emts/internal/daggen"
	"emts/internal/ea"
	"emts/internal/listsched"
	"emts/internal/model"
	"emts/internal/platform"
	"emts/internal/schedule"
)

// TestAllocateSeedsMatchesSeparate: the seeding phase, with MCPA and HCPA
// sharing one CPA pass and every allocation mapped by its worker, reports for
// every seeder exactly what running it alone, clamping and mapping reports,
// at any worker count, on graphs where MCPA forks off CPA (Chti) and where it
// does not (Grelon).
func TestAllocateSeedsMatchesSeparate(t *testing.T) {
	for i := 0; i < 6; i++ {
		g, err := daggen.Random(daggen.RandomConfig{N: 100, Width: 0.5, Regularity: 0.2, Density: 0.2, Jump: 2}, daggen.DefaultCosts(), int64(1000+i))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range platform.Both() {
			tab := model.MustTable(g, model.Synthetic{}, c)
			seeders := append(DefaultSeeds(int64(i)), failingSeeder{"broken"}, shortSeeder{}, alloc.CPA{})
			if i%2 == 1 {
				// HCPA before MCPA, and a second MCPA outside the pair.
				seeders[0], seeders[1] = seeders[1], seeders[0]
				seeders = append(seeders, alloc.MCPA{})
			}
			want := make([]seedOutcome, len(seeders))
			for k, s := range seeders {
				a, err := s.Allocate(g, tab)
				if err == nil {
					a.Clamp(c.Procs)
					var ms float64
					if ms, err = listsched.Makespan(g, tab, a); err == nil {
						want[k] = seedOutcome{alloc: a, makespan: ms}
						continue
					}
				}
				want[k] = seedOutcome{err: err}
			}
			for _, workers := range []int{1, 2, 8} {
				m, err := listsched.NewMapper(g, tab)
				if err != nil {
					t.Fatal(err)
				}
				got := allocateSeeds(g, tab, m, seeders, workers)
				for k := range want {
					w, o := want[k], got[k]
					if (w.err == nil) != (o.err == nil) || (w.err != nil && w.err.Error() != o.err.Error()) ||
						!reflect.DeepEqual(w.alloc, o.alloc) || math.Float64bits(w.makespan) != math.Float64bits(o.makespan) {
						t.Fatalf("graph %d on %s, workers %d, seeder %s: got %+v, want %+v", i, c.Name, workers, seeders[k].Name(), o, w)
					}
				}
			}
		}
	}
}

// badMutation writes value into the last allele of every child.
type badMutation struct{ value int }

func (badMutation) Name() string { return "bad" }

func (b badMutation) Mutate(_ *ea.Rand, a schedule.Allocation, _, _ int) { a[len(a)-1] = b.value }

// TestRunRejectsOutsideMutatorChildren: a custom Mutator writing 0 or
// procs+1 fails the run with schedule.Allocation.Validate's error, although
// the EA's evaluations no longer check their allocations, at any island and
// worker count (with helpers evaluating the children published before it).
func TestRunRejectsOutsideMutatorChildren(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomPTG(rng, 30)
	tab := model.MustTable(g, model.Amdahl{}, testCluster)
	for _, value := range []int{0, testCluster.Procs + 1} {
		bad := schedule.Ones(g.NumTasks())
		bad[len(bad)-1] = value
		want := bad.Validate(g, testCluster.Procs)
		for _, islands := range []int{0, 4} {
			for _, workers := range []int{1, 4} {
				p := EMTS10(3)
				p.Mutator, p.Islands, p.Workers = badMutation{value}, islands, workers
				res, err := Run(g, tab, p)
				if res != nil || err == nil || err.Error() != want.Error() {
					t.Fatalf("value %d, islands %d, workers %d: result %v, err %v; want %v", value, islands, workers, res != nil, err, want)
				}
			}
		}
	}
}
