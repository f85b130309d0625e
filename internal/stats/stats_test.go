package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Fatalf("N=%d mean=%g", s.N, s.Mean)
	}
	// Sample SD of this classic dataset is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.SD-want) > 1e-12 {
		t.Fatalf("SD = %g, want %g", s.SD, want)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max = %g/%g", s.Min, s.Max)
	}
	if s.CI95 <= 0 {
		t.Fatalf("CI95 = %g", s.CI95)
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty: %+v", s)
	}
	s := Summarize([]float64{3})
	if s.N != 1 || s.Mean != 3 || s.SD != 0 || s.CI95 != 0 {
		t.Fatalf("singleton: %+v", s)
	}
}

func TestCI95KnownValue(t *testing.T) {
	// n=4, sd=2: half-width = t(0.975,3)*2/sqrt(4) = 3.1824*1 = 3.1824.
	s := Summarize([]float64{-2, 0, 0, 2}) // mean 0, sd sqrt(8/3)
	sd := math.Sqrt(8.0 / 3.0)
	want := 3.182446 * sd / 2
	if math.Abs(s.CI95-want) > 1e-3 {
		t.Fatalf("CI95 = %g, want %g", s.CI95, want)
	}
}

func TestMean(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 100}
	if Mean(xs) != 22 {
		t.Fatalf("Mean = %g", Mean(xs))
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean of an empty slice")
	}
}

func TestNormQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, z float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.025, -1.959964},
		{0.995, 2.575829},
		{0.84134, 0.99998}, // ~Phi(1)
	}
	for _, c := range cases {
		if got := NormQuantile(c.p); math.Abs(got-c.z) > 1e-4 {
			t.Errorf("NormQuantile(%g) = %g, want %g", c.p, got, c.z)
		}
	}
	if !math.IsInf(NormQuantile(0), -1) || !math.IsInf(NormQuantile(1), 1) {
		t.Fatal("boundary quantiles")
	}
}

func TestNormQuantileRoundTrip(t *testing.T) {
	// Phi(NormQuantile(p)) == p, using the erf-based CDF as reference.
	f := func(raw float64) bool {
		p := 0.001 + 0.998*math.Abs(math.Mod(raw, 1))
		z := NormQuantile(p)
		cdf := 0.5 * (1 + math.Erf(z/math.Sqrt2))
		return math.Abs(cdf-p) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTQuantileKnownValues(t *testing.T) {
	cases := []struct {
		p    float64
		df   int
		want float64
	}{
		{0.975, 1, 12.7062},
		{0.975, 2, 4.30265},
		{0.975, 4, 2.77645},
		{0.975, 9, 2.26216},
		{0.975, 29, 2.04523},
		{0.975, 99, 1.98422},
		{0.95, 9, 1.83311},
		{0.5, 7, 0},
	}
	for _, c := range cases {
		if got := TQuantile(c.p, c.df); math.Abs(got-c.want) > 5e-3 {
			t.Errorf("TQuantile(%g, %d) = %g, want %g", c.p, c.df, got, c.want)
		}
	}
	if !math.IsNaN(TQuantile(0.975, 0)) {
		t.Fatal("df=0 must be NaN")
	}
}

func TestTQuantileSymmetric(t *testing.T) {
	for _, df := range []int{1, 2, 3, 5, 10, 50} {
		for _, p := range []float64{0.6, 0.8, 0.95, 0.99} {
			a, b := TQuantile(p, df), TQuantile(1-p, df)
			if math.Abs(a+b) > 1e-9*math.Abs(a)+1e-9 {
				t.Fatalf("asymmetric: Q(%g,%d)=%g, Q(%g,%d)=%g", p, df, a, 1-p, df, b)
			}
		}
	}
}

func TestTQuantileApproachesNormal(t *testing.T) {
	z := NormQuantile(0.975)
	tq := TQuantile(0.975, 10000)
	if math.Abs(tq-z) > 1e-3 {
		t.Fatalf("t(10000) = %g, z = %g", tq, z)
	}
}

func TestCIShrinksWithN(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gen := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		return xs
	}
	small := Summarize(gen(10))
	large := Summarize(gen(1000))
	if large.CI95 >= small.CI95 {
		t.Fatalf("CI did not shrink: %g vs %g", large.CI95, small.CI95)
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if got := s.String(); got == "" {
		t.Fatal("empty String()")
	}
}
