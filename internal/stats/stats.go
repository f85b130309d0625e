// Package stats provides the small statistical toolkit the experiment
// harness needs: sample summaries with 95% Student-t confidence intervals
// (every bar of Figures 4 and 5 carries one).
package stats

import (
	"fmt"
	"math"
)

// Summary describes a sample: size, mean, sample standard deviation, and the
// half-width of the two-sided 95% confidence interval of the mean.
type Summary struct {
	N    int
	Mean float64
	SD   float64
	// CI95 is the half-width h such that [Mean-h, Mean+h] is the 95%
	// confidence interval; 0 for N < 2.
	CI95 float64
	Min  float64
	Max  float64
}

// Summarize computes the summary of xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = math.Inf(1), math.Inf(-1)
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N < 2 {
		return s
	}
	ss := 0.0
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.SD = math.Sqrt(ss / float64(s.N-1))
	s.CI95 = TQuantile(0.975, s.N-1) * s.SD / math.Sqrt(float64(s.N))
	return s
}

// String formats the summary as "mean ± ci (n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", s.Mean, s.CI95, s.N)
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// NormQuantile returns the quantile function (inverse CDF) of the standard
// normal distribution, using Acklam's rational approximation (relative error
// below 1.15e-9 over (0, 1)).
func NormQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const pLow = 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}

// TQuantile returns the quantile function of Student's t distribution with
// df degrees of freedom. A Cornish-Fisher expansion around the normal
// quantile (Abramowitz & Stegun 26.7.5) provides the initial guess, which is
// polished with Newton steps against the exact CDF (regularized incomplete
// beta function); df 1 and 2 use exact closed forms.
func TQuantile(p float64, df int) float64 {
	if df < 1 {
		return math.NaN()
	}
	if p == 0.5 {
		return 0
	}
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	switch df {
	case 1:
		return math.Tan(math.Pi * (p - 0.5))
	case 2:
		a := 4 * p * (1 - p)
		return 2 * (p - 0.5) * math.Sqrt(2/a)
	}
	z := NormQuantile(p)
	n := float64(df)
	z3 := z * z * z
	z5 := z3 * z * z
	z7 := z5 * z * z
	z9 := z7 * z * z
	t := z +
		(z3+z)/(4*n) +
		(5*z5+16*z3+3*z)/(96*n*n) +
		(3*z7+19*z5+17*z3-15*z)/(384*n*n*n) +
		(79*z9+776*z7+1482*z5-1920*z3-945*z)/(92160*n*n*n*n)
	// Newton refinement: solve TCDF(t) = p. The density is strictly positive,
	// so a handful of steps converges from the already-close expansion.
	for i := 0; i < 8; i++ {
		f := TCDF(t, df) - p
		d := tPDF(t, n)
		if d == 0 {
			break
		}
		step := f / d
		t -= step
		if math.Abs(step) < 1e-12*(1+math.Abs(t)) {
			break
		}
	}
	return t
}

// TCDF returns the cumulative distribution function of Student's t
// distribution with df degrees of freedom, via the regularized incomplete
// beta function.
func TCDF(t float64, df int) float64 {
	n := float64(df)
	if t == 0 {
		return 0.5
	}
	x := n / (n + t*t)
	ib := 0.5 * RegIncBeta(n/2, 0.5, x)
	if t > 0 {
		return 1 - ib
	}
	return ib
}

// tPDF is the density of the t distribution with n degrees of freedom.
func tPDF(t, n float64) float64 {
	lg1, _ := math.Lgamma((n + 1) / 2)
	lg2, _ := math.Lgamma(n / 2)
	logC := lg1 - lg2 - 0.5*math.Log(n*math.Pi)
	return math.Exp(logC - (n+1)/2*math.Log1p(t*t/n))
}

// RegIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Lentz's method, as in Numerical
// Recipes), valid for a, b > 0 and x in [0, 1].
func RegIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lga, _ := math.Lgamma(a + b)
	lgb, _ := math.Lgamma(a)
	lgc, _ := math.Lgamma(b)
	front := math.Exp(lga - lgb - lgc + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction of the incomplete beta function.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-16
		fpMin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpMin {
		d = fpMin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		fm := float64(m)
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpMin {
			d = fpMin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpMin {
			c = fpMin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpMin {
			d = fpMin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpMin {
			c = fpMin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
