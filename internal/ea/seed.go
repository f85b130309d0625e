package ea

import "math/rand"

// Island RNG derivation (DESIGN.md §17). Every island of a run owns a private
// random stream, a Rand over rand.NewSource; the streams are
// decorrelated by deriving each island's seed from the run seed with
// splitmix64, the standard seed-spreading finalizer (Steele et al., "Fast
// splittable pseudorandom number generators"). Island 0 keeps the raw run
// seed so a single-island run draws exactly the sequence the pre-island code
// drew — the byte-identity anchor for the whole lattice.
//
// newIslandRNG is the only sanctioned constructor of RNGs in this package:
// the schedlint islandrng analyzer rejects any other math/rand construction
// in internal/ea, so a refactor cannot quietly reintroduce a shared or
// ad-hoc-seeded generator.

// splitmix64GoldenGamma is the Weyl-sequence increment of splitmix64: the
// golden ratio in 0.64 fixed point, chosen so consecutive states differ in
// about half their bits before mixing.
const splitmix64GoldenGamma = 0x9E3779B97F4A7C15

// splitmix64 applies the splitmix64 output mix to x: an invertible avalanche
// (two xor-shift-multiply rounds) under which single-bit input changes flip
// about half the output bits.
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// islandSeed derives the RNG seed of island idx from the run seed. Island 0
// keeps the raw seed (single-island byte-identity); island idx > 0 gets the
// idx-th splitmix64 output, i.e. the mix of seed advanced idx golden-gamma
// steps. The derivation depends only on (seed, idx), never on the island
// count, worker count, or topology.
func islandSeed(seed int64, idx int) int64 {
	if idx == 0 {
		return seed
	}
	return int64(splitmix64(uint64(seed) + uint64(idx)*splitmix64GoldenGamma))
}

// newIslandRNG builds island idx's private generator. All math/rand
// construction in this package must flow through here (schedlint islandrng).
func newIslandRNG(seed int64, idx int) *Rand {
	r := &Rand{src: rand.NewSource(islandSeed(seed, idx)).(rand.Source64)}
	r.load()
	r.std = rand.New(r)
	return r
}

// NewRand returns the stream of rand.NewSource(seed), which is island 0's
// stream of a run with that seed: its draws equal those of
// rand.New(rand.NewSource(seed)).
func NewRand(seed int64) *Rand { return newIslandRNG(seed, 0) }
