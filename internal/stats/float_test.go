package stats

import (
	"math"
	"testing"
)

func TestApproxEqual(t *testing.T) {
	inf := math.Inf(1)
	nan := math.NaN()
	cases := []struct {
		name string
		a, b float64
		want bool
	}{
		{"exact", 1.5, 1.5, true},
		{"within relative eps", 1e12, 1e12 * (1 + 1e-12), true},
		{"outside relative eps", 1e12, 1e12 * (1 + 1e-6), false},
		{"near zero absolute", 1e-12, -1e-12, true},
		{"zero vs tiny", 0, 1e-10, true},
		{"zero vs small", 0, 1e-3, false},
		{"signed zeros", 0.0, math.Copysign(0, -1), true},
		{"equal infinities", inf, inf, true},
		{"opposite infinities", inf, -inf, false},
		{"inf vs finite", inf, 1e300, false},
		{"nan vs nan", nan, nan, false},
		{"nan vs finite", nan, 1, false},
	}
	for _, tc := range cases {
		if got := ApproxEqual(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: ApproxEqual(%g, %g) = %v, want %v", tc.name, tc.a, tc.b, got, tc.want)
		}
		if got := ApproxEqual(tc.b, tc.a); got != tc.want {
			t.Errorf("%s: ApproxEqual(%g, %g) = %v, want %v (symmetry)", tc.name, tc.b, tc.a, got, tc.want)
		}
	}
}

func TestApproxEqualEpsCustom(t *testing.T) {
	if !ApproxEqualEps(100, 101, 0.02) {
		t.Error("ApproxEqualEps(100, 101, 0.02) should hold (1% apart, 2% tolerance)")
	}
	if ApproxEqualEps(100, 103, 0.02) {
		t.Error("ApproxEqualEps(100, 103, 0.02) should fail (3% apart, 2% tolerance)")
	}
}
