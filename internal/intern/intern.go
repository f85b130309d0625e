// Package intern provides content-addressed caches for the two immutable,
// expensive-to-build objects on the serving path: decoded dag.Graphs and
// model execution-time Tables (DESIGN.md §12).
//
// Repeat-structure traffic — the loadgen seed-sweep case, or any client
// scheduling the same PTG under many seeds or algorithms — used to pay JSON
// decode, graph validation, topo/CSR construction, and the V×P model
// evaluation on every request. Both object kinds are deeply immutable after
// construction (dag.Graph documents itself safe for concurrent use; a Table
// is never written after NewTable), so one instance can serve any number of
// concurrent requests. Interning them keyed by content hash makes the warm
// path a map lookup.
//
// Graphs are keyed by the SHA-256 of the raw request bytes — computable
// before any decoding, so a hit skips the decoder entirely. Two spellings of
// the same graph (whitespace, field order) intern separately, but converge at
// the canonical layer: every entry carries the canonical re-encoding and its
// digest, which downstream caches (response cache, table intern) key on.
// Tables are keyed by (canonical graph digest, model name, cluster).
//
// Both caches are the bounded LRU of lru.go, the same one emts-serve keeps
// its response cache in, and are safe for concurrent use.
package intern

import (
	"crypto/sha256"
	"encoding/hex"

	"emts/internal/dag"
	"emts/internal/model"
	"emts/internal/platform"
)

// DefaultEntries is the capacity used when a cache is constructed with a
// non-positive bound.
const DefaultEntries = 64

// RawKey is the content key the graph intern derives from raw submitted
// graph bytes: SHA-256 over the bytes as sent, computable without any
// decoding. It is exported so the routing tier (internal/route) can shard
// requests by the exact digest each backend's graph intern will look up —
// cache affinity holds because both sides hash the same bytes the same way.
func RawKey(raw []byte) [sha256.Size]byte {
	return sha256.Sum256(raw)
}

// GraphEntry is one interned graph: the decoded DAG plus its canonical
// encoding, shared by every request that submits the same bytes. All fields
// are read-only after interning.
type GraphEntry struct {
	// Graph is the decoded, validated DAG (safe for concurrent use).
	Graph *dag.Graph
	// Canon is the canonical JSON re-encoding (deterministic task and edge
	// order) — the bytes the response-cache key is computed over. Callers
	// must not modify it.
	Canon []byte
	// CanonKey is hex(SHA-256(Canon)): the canonical identity of the graph,
	// independent of the submitted spelling. Table interning keys on it.
	CanonKey string
}

// Graphs is a bounded LRU of decoded graphs keyed by the SHA-256 of the raw
// submitted bytes.
type Graphs struct {
	*LRU[[sha256.Size]byte, *GraphEntry]
}

// NewGraphs returns a graph intern holding at most capacity entries
// (non-positive selects DefaultEntries).
func NewGraphs(capacity int) *Graphs {
	return &Graphs{NewLRU[[sha256.Size]byte, *GraphEntry](capacity)}
}

// Get returns the interned entry for the raw graph bytes, decoding and
// interning on first sight. The second result reports whether the entry was
// already interned. Decode failures are returned verbatim (and never cached):
// the caller's validation taxonomy is unchanged.
func (c *Graphs) Get(raw []byte) (*GraphEntry, bool, error) {
	key := RawKey(raw)
	if entry, ok := c.LRU.Get(key); ok {
		return entry, true, nil
	}
	// Decode and canonicalize outside the lock: this is the expensive part,
	// and concurrent first sightings of the same graph merely race to insert
	// equivalent entries, of which Add keeps one.
	entry, err := NewGraphEntry(raw)
	if err != nil {
		return nil, false, err
	}
	return c.Add(key, entry), false, nil
}

// NewGraphEntry decodes raw graph bytes (dag.UnmarshalGraph) and
// canonicalizes the graph. It builds every GraphEntry: the intern's on a
// miss, and the one a server that interns nothing builds per request, so
// both derive the same keys. Decode failures are returned verbatim.
func NewGraphEntry(raw []byte) (*GraphEntry, error) {
	g, err := dag.UnmarshalGraph(raw)
	if err != nil {
		return nil, err
	}
	canon, err := g.MarshalJSON()
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(canon)
	return &GraphEntry{Graph: g, Canon: canon, CanonKey: hex.EncodeToString(sum[:])}, nil
}

// TableKey identifies an execution-time table: the canonical graph digest
// plus everything NewTable consumes. platform.Cluster is a comparable value
// type, so the struct is directly usable as a map key.
type TableKey struct {
	// GraphKey is GraphEntry.CanonKey — canonical, so two spellings of the
	// same graph share tables.
	GraphKey string
	// Model is the normalized (lowercased) model name.
	Model string
	// Cluster is the resolved platform.
	Cluster platform.Cluster
}

// Tables is a bounded LRU of execution-time tables.
type Tables struct {
	*LRU[TableKey, *model.Table]
}

// NewTables returns a table intern holding at most capacity entries
// (non-positive selects DefaultEntries).
func NewTables(capacity int) *Tables {
	return &Tables{NewLRU[TableKey, *model.Table](capacity)}
}

// Get returns the interned table for key, calling build to construct it on
// first sight. The second result reports whether the table was already
// interned. Build failures are returned verbatim and never cached. A hit
// skips the V×P model evaluation entirely.
func (c *Tables) Get(key TableKey, build func() (*model.Table, error)) (*model.Table, bool, error) {
	if tab, ok := c.LRU.Get(key); ok {
		return tab, true, nil
	}
	tab, err := build()
	if err != nil {
		return nil, false, err
	}
	return c.Add(key, tab), false, nil
}
