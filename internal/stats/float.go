package stats

import "math"

// This file holds the repo's designated epsilon-comparison helpers. The
// floateq analyzer (internal/lint/floateq, DESIGN.md §9) flags every direct
// == / != between floating-point variables elsewhere in the tree; code that
// genuinely wants tolerant comparison routes through these functions, and
// code that genuinely wants exact comparison (sort tie-breaks, identity
// short-circuits) carries an inline //schedlint:allow with its reason.
//
// Exact comparisons below are intentional — they classify infinities, NaNs,
// and exact zeros before a tolerance applies — so .schedlint.conf exempts
// this one file.

// DefaultEpsilon is the relative tolerance used by ApproxEqual. Makespans
// are sums of O(V) IEEE-754 products; 1e-9 absorbs the accumulated rounding
// of any realistic PTG while staying far below meaningful time differences.
const DefaultEpsilon = 1e-9

// ApproxEqual reports whether a and b are equal within DefaultEpsilon
// relative tolerance (absolute near zero).
func ApproxEqual(a, b float64) bool {
	return ApproxEqualEps(a, b, DefaultEpsilon)
}

// ApproxEqualEps reports whether a and b are equal within eps. The tolerance
// is relative to the larger magnitude, falling back to an absolute tolerance
// when both values are within eps of zero. NaN never compares equal;
// infinities compare equal only to themselves.
func ApproxEqualEps(a, b, eps float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b { // covers equal infinities, signed zeros, exact hits
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale <= eps {
		return diff <= eps
	}
	return diff <= eps*scale
}
