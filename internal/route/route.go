// Package route is the horizontal scale-out tier of the scheduling service
// (DESIGN.md §15): rendezvous hashing of schedule requests onto a set of
// emts-serve backends, backend health tracking with ejection and
// re-admission, and a stateless reverse proxy (cmd/emts-router) built on
// both.
//
// # Why shard by content digest
//
// PR 5 made a single emts-serve process fast by making its caches
// content-addressed: the graph intern is keyed by the SHA-256 of the raw
// submitted graph bytes, and the table and response caches key off the
// canonical digest derived from it. Round-robin load balancing over N such
// processes duplicates every working set N times — each backend's bounded
// LRUs must hold *all* hot graphs, so the aggregate effective cache capacity
// stays at one backend's worth. Hashing each request's graph digest onto a
// stable backend instead partitions the key space: backend i only ever sees
// ~1/N of the graphs, its LRUs stay hot for exactly that range, and
// aggregate cache capacity scales with N. The router finds the graph with
// envelope.Decode — the decoder the backend parses the body with — and
// digests it with intern.RawKey — the very function the backend's graph
// intern uses — so the routing key and the cache key are the same bytes by
// construction.
//
// # Why rendezvous (highest-random-weight) hashing
//
// Rendezvous hashing scores every (key, backend) pair independently and
// picks the maximum, which gives the two properties the tier needs with no
// ring state at all: membership changes are minimal (removing a backend
// remaps only the keys it owned, ~1/N; adding one steals ~1/(N+1) from the
// others and nothing else moves), and the per-key preference order is a
// deterministic permutation of the backends — the retry path simply takes
// the next-highest score. Scores depend only on (key, backend ID), never on
// list order; ties break toward the lexicographically smaller ID so the
// choice is total.
package route

import (
	"encoding/hex"
	"errors"
	"strings"

	"emts/internal/envelope"
	"emts/internal/intern"
)

// Sentinel errors of the routing tier. The proxy hot path classifies every
// failure into one of these (sentinelerr discipline, DESIGN.md §14): no
// per-request error values are constructed while serving.
var (
	// ErrNoBackends means the healthy set is empty: every backend is ejected
	// or the router was started with none.
	ErrNoBackends = errors.New("route: no healthy backends")
	// ErrNoGraph means the request body carried no graph field to hash.
	ErrNoGraph = errors.New("route: request has no graph field")
)

// Backend is one emts-serve instance.
type Backend struct {
	// ID is the stable identity rendezvous scores hash over — the listen
	// address as given on the command line. Renaming a backend reshuffles
	// its key range; restarting it at the same address does not.
	ID string
	// URL is the base URL requests are forwarded to (scheme + host:port).
	URL string
}

// Table is an immutable rendezvous view of a backend set. The zero value is
// an empty table; build real ones with NewTable. Health transitions swap
// whole tables atomically (see Checker), so a request that captured a table
// keeps routing against that snapshot even while the membership changes —
// this is what makes rebalances graceful for in-flight work.
type Table struct {
	backends []Backend // sorted by ID, IDs unique
}

// NewTable builds a table over the given backends. The input slice is
// copied; order is irrelevant (scores are per-pair and the copy is sorted by
// ID). Duplicate IDs are an error: two backends with one identity would
// shadow each other's key range.
func NewTable(backends []Backend) (*Table, error) {
	t := &Table{backends: make([]Backend, len(backends))}
	copy(t.backends, backends)
	// Insertion sort by ID: the set is a handful of entries and this keeps
	// the package dependency-free on the hot structs.
	for i := 1; i < len(t.backends); i++ {
		for j := i; j > 0 && t.backends[j].ID < t.backends[j-1].ID; j-- {
			t.backends[j], t.backends[j-1] = t.backends[j-1], t.backends[j]
		}
	}
	for i := 1; i < len(t.backends); i++ {
		if t.backends[i].ID == t.backends[i-1].ID {
			return nil, errors.New("route: duplicate backend id " + t.backends[i].ID)
		}
	}
	return t, nil
}

// Len reports the number of backends in the table.
func (t *Table) Len() int { return len(t.backends) }

// Backends returns a copy of the member set in ID order.
func (t *Table) Backends() []Backend {
	out := make([]Backend, len(t.backends))
	copy(out, t.backends)
	return out
}

// FNV-1a 64-bit parameters (hash/fnv unrolled so the scoring loop stays
// call-free and inlinable under the hotescape budget).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fmix64 is the MurmurHash3 finalizer. Raw FNV-1a is not enough for
// rendezvous scoring: backend IDs that share a prefix ("b0".."b4") differ
// only in the last absorbed byte, so their scores land within ~|Δbyte|·prime
// of each other — the whole set behaves like ONE random draw, and a new
// backend with an independent score steals ~half the keys instead of
// ~1/(N+1) (caught by TestMembershipStability). Full avalanche on the final
// state makes any single-bit input difference flip every output bit with
// probability 1/2, restoring independent per-pair scores.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Pick returns the rendezvous choice for key among backends whose ID is not
// exclude. The first attempt passes exclude == ""; the retry-on-refused path
// passes the failed backend's ID and lands on the next-highest score — the
// same backend a table without the failed member would have chosen. The
// boolean is false when no eligible backend exists.
//
// Scores are FNV-1a over the key bytes followed by the backend ID bytes,
// passed through the fmix64 avalanche finalizer, so a pair's score is
// independent of every other backend and of list order; equal scores break
// toward the smaller ID.
//
//schedlint:hotpath
func (t *Table) Pick(key []byte, exclude string) (Backend, bool) {
	var (
		best      Backend
		bestScore uint64
		found     bool
	)
	// Key prefix hashed once, shared by every backend's score.
	h0 := uint64(fnvOffset64)
	for _, b := range key {
		h0 = (h0 ^ uint64(b)) * fnvPrime64
	}
	for i := range t.backends {
		b := &t.backends[i]
		if b.ID == exclude {
			continue
		}
		h := h0
		for j := 0; j < len(b.ID); j++ {
			h = (h ^ uint64(b.ID[j])) * fnvPrime64
		}
		h = fmix64(h)
		if !found || h > bestScore || (h == bestScore && b.ID < best.ID) {
			best, bestScore, found = *b, h, true
		}
	}
	return best, found
}

// RequestKey computes the routing key for a raw /v1/schedule body: the exact
// digest the backend's graph intern will look the graph up under
// (intern.RawKey over the graph field's raw bytes). The body is decoded by
// envelope.Decode, the decoder the backend parses it with, so a body the
// backend accepts always shards by its graph. A body whose envelope Decode
// rejects, or that has no graph, returns the whole body's digest with
// ErrNoGraph: the router routes it by that key, and the chosen backend
// answers the authoritative 400.
func RequestKey(body []byte) ([32]byte, error) {
	req, err := envelope.Decode(body)
	if err != nil || len(req.Graph) == 0 {
		return intern.RawKey(body), ErrNoGraph
	}
	return intern.RawKey(req.Graph), nil
}

// JobKey recovers the affinity key from a /v1/jobs/{id}[/...] path. Job ids
// lead with the hex digest of the raw graph bytes — the exact key RequestKey
// hashed when the submit was routed — so polls, SSE subscriptions, and
// cancels land on the backend that owns the job without the router keeping
// any state. A malformed path falls back to a digest of the whole path:
// still deterministic (equal paths keep hitting one backend, which owns the
// authoritative 404), reported by ok == false.
func JobKey(path string) (key [32]byte, ok bool) {
	const prefix = "/v1/jobs/"
	rest, found := strings.CutPrefix(path, prefix)
	if !found {
		return intern.RawKey([]byte(path)), false
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i] // strip /events, /result
	}
	if i := strings.IndexByte(rest, '-'); i >= 0 {
		rest = rest[:i] // keep the leading graph-digest segment
	}
	if len(rest) != 2*len(key) {
		return intern.RawKey([]byte(path)), false
	}
	if _, err := hex.Decode(key[:], []byte(rest)); err != nil {
		return intern.RawKey([]byte(path)), false
	}
	return key, true
}
