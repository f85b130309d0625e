package core

import (
	"testing"

	"emts/internal/daggen"
	"emts/internal/listsched"
	"emts/internal/model"
	"emts/internal/platform"
)

// BenchmarkDefaultSeeds measures the seeding phase of one EMTS run on the
// 100-task Grelon instance of the root package's instance benchmarks
// (benchInstance in bench_test.go): DefaultSeeds allocated and mapped on
// GOMAXPROCS workers, MCPA and HCPA sharing one CPA pass. Traced perfbench
// runs wrap every seeder, so the pair does not form there; this benchmark
// is where the shared pass shows.
//
//	go test -run '^$' -bench DefaultSeeds ./internal/core
func BenchmarkDefaultSeeds(b *testing.B) {
	g, err := daggen.Random(daggen.RandomConfig{
		N: 100, Width: 0.5, Regularity: 0.5, Density: 0.5, Jump: 2,
	}, daggen.DefaultCosts(), 7)
	if err != nil {
		b.Fatal(err)
	}
	tab, err := model.NewTable(g, model.Synthetic{}, platform.Grelon())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := listsched.NewMapper(g, tab)
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range allocateSeeds(g, tab, m, DefaultSeeds(1), 0) {
			if o.err != nil {
				b.Fatal(o.err)
			}
		}
	}
}
