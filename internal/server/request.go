package server

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"emts/internal/dag"
	"emts/internal/envelope"
	"emts/internal/intern"
	"emts/internal/platform"
	"emts/internal/sim"
)

// RequestError is a typed validation failure of a schedule request. The
// server maps it (and dag.DecodeError) to a 400 response naming the field.
type RequestError struct {
	// Field is the JSON path of the offending element.
	Field string
	// Msg describes the violation.
	Msg string
}

// Error implements error.
func (e *RequestError) Error() string {
	return fmt.Sprintf("server: invalid request: %s: %s", e.Field, e.Msg)
}

func requestErrorf(field, msg string, args ...interface{}) *RequestError {
	return &RequestError{Field: field, Msg: fmt.Sprintf(msg, args...)}
}

// maxTableCells bounds tasks × procs, the number of float64 cells
// model.NewTable allocates eagerly for a request: 20000 × 120, the default
// MaxTasks on the Grelon preset (about 19 MB of table). The cluster's
// processor count is request-controlled, so without this bound a single
// inline "procs" could make one request allocate without limit.
const maxTableCells = 20000 * 120

// parsedRequest is a fully validated schedule request: the decoded graph, the
// resolved cluster, the run plan, and the canonical cache key.
type parsedRequest struct {
	req     envelope.ScheduleRequest
	graph   *dag.Graph
	cluster platform.Cluster
	// plan is the run the names resolve to (sim.Resolve), with the request's
	// island settings applied. Its canonical names label the keys and the
	// metrics, so an alias shares its canonical spelling's cache entry.
	plan *sim.Plan
	// key is the canonical cache key: a digest over the canonical graph
	// encoding, the resolved cluster, and the normalized run parameters.
	key string
	// graphKey is the canonical identity of the graph alone
	// (hex SHA-256 of its canonical encoding) — the table intern keys on it.
	graphKey string
	// graphInterned reports that the graph came out of the intern instead of
	// the decoder (the X-Emts-Interned header's graph component).
	graphInterned bool
}

// parseScheduleRequest decodes and validates an untrusted request body.
// maxTasks bounds the accepted graph size and maxIslands the requested island
// count (0 = unlimited for both). When graphs is non-nil, the graph is
// resolved through the intern: a repeat submission of the same bytes skips
// JSON decoding, graph construction, and the canonical re-encoding entirely.
// All rejections are typed (*RequestError or *dag.DecodeError) and identical
// with or without an intern.
//
// The envelope is decoded by envelope.Decode, the decoder emts-router keys
// the same body with; the graph by dag.UnmarshalGraph. Both take a one-pass
// dag.Scanner path when they can, and which decoder ran never shows in a
// key, an error or a response.
func parseScheduleRequest(body []byte, maxTasks, maxIslands int, graphs *intern.Graphs) (*parsedRequest, error) {
	req, err := envelope.Decode(body)
	if err != nil {
		return nil, &RequestError{Field: "body", Msg: err.Error()}
	}
	return validateScheduleRequest(req, maxTasks, maxIslands, graphs)
}

// jobID is the request's job id. It leads with the digest of the raw graph
// bytes, the key route.RequestKey shards the body by, so the router can
// route every later poll, SSE subscription and cancel to this backend by
// parsing it back out of the path. The canonical digest follows as the
// idempotency component.
func (p *parsedRequest) jobID() string {
	raw := intern.RawKey(p.req.Graph)
	return hex.EncodeToString(raw[:]) + "-" + p.key
}

// validateScheduleRequest resolves and validates a decoded request: the
// graph (through the intern when graphs is non-nil), the cluster, the
// admission limits, the run parameters and, last, the model and algorithm
// names, so a request is rejected for an unknown name before it can take a
// queue slot, build a table or create a job. It then derives the keys.
func validateScheduleRequest(req envelope.ScheduleRequest, maxTasks, maxIslands int, graphs *intern.Graphs) (*parsedRequest, error) {
	if len(req.Graph) == 0 {
		return nil, requestErrorf("graph", "missing")
	}
	var (
		entry *intern.GraphEntry
		hit   bool
		err   error
	)
	if graphs != nil {
		entry, hit, err = graphs.Get(req.Graph)
	} else {
		entry, err = intern.NewGraphEntry(req.Graph)
	}
	if err != nil {
		return nil, err // *dag.DecodeError for validation, fmt for malformed JSON
	}
	g := entry.Graph
	if g.NumTasks() == 0 {
		return nil, requestErrorf("graph.tasks", "empty graph")
	}
	if maxTasks > 0 && g.NumTasks() > maxTasks {
		return nil, requestErrorf("graph.tasks", "%d tasks exceeds the admission limit of %d", g.NumTasks(), maxTasks)
	}
	cluster, err := resolveCluster(req.Cluster)
	if err != nil {
		return nil, err
	}
	// procs > ⌊cells/tasks⌋ ⇔ tasks × procs > cells, without the product
	// that could overflow.
	if cluster.Procs > maxTableCells/g.NumTasks() {
		return nil, requestErrorf("cluster.procs", "%d processors × %d tasks exceeds the admission limit of %d table cells",
			cluster.Procs, g.NumTasks(), maxTableCells)
	}
	if req.TimeoutMS < 0 {
		return nil, requestErrorf("timeout_ms", "negative value %d", req.TimeoutMS)
	}
	if req.Islands < 0 {
		return nil, requestErrorf("islands", "negative value %d", req.Islands)
	}
	if maxIslands > 0 && req.Islands > maxIslands {
		return nil, requestErrorf("islands", "%d islands exceeds the admission limit of %d", req.Islands, maxIslands)
	}
	if req.MigrationInterval < 0 {
		return nil, requestErrorf("migration_interval", "negative value %d", req.MigrationInterval)
	}
	modelName, algorithm := cmp.Or(req.Model, "synthetic"), cmp.Or(req.Algorithm, "emts5")
	plan, err := sim.Resolve(modelName, algorithm, req.Seed)
	if err != nil {
		return nil, err
	}
	if plan.Params != nil {
		plan.Params.Islands = req.Islands
		plan.Params.MigrationInterval = req.MigrationInterval
	}
	return &parsedRequest{
		req:           req,
		graph:         g,
		cluster:       cluster,
		plan:          plan,
		key:           canonicalKey(entry, cluster, plan.ModelName, plan.Algorithm, req.Seed, req.Islands, req.MigrationInterval),
		graphKey:      entry.CanonKey,
		graphInterned: hit,
	}, nil
}

// resolveCluster maps the spec to a validated platform.Cluster.
func resolveCluster(cs envelope.ClusterSpec) (platform.Cluster, error) {
	if cs.Preset != "" {
		if cs.Name != "" || cs.Procs != 0 || cs.SpeedGFlops != 0 {
			return platform.Cluster{}, requestErrorf("cluster", "preset and inline fields are mutually exclusive")
		}
		switch strings.ToLower(cs.Preset) {
		case "chti":
			return platform.Chti(), nil
		case "grelon":
			return platform.Grelon(), nil
		}
		return platform.Cluster{}, requestErrorf("cluster.preset", "unknown preset %q (have chti, grelon)", cs.Preset)
	}
	name := cs.Name
	if name == "" {
		name = "cluster"
	}
	c, err := platform.New(name, cs.Procs, cs.SpeedGFlops)
	if err != nil {
		return platform.Cluster{}, requestErrorf("cluster", "%v", err)
	}
	return c, nil
}

// canonicalKey digests the semantic content of a request: the graph's
// canonical MarshalJSON encoding (deterministic task and edge order, cached
// by the intern with its hash state, so only what follows it is hashed
// here), then the resolved cluster and the normalized run parameters, each
// after a zero byte. Two submissions that differ only in JSON whitespace,
// field order, or float spelling of the same value stream map to the same
// key. The digest layout is unchanged from the pre-intern code for
// single-population requests — the island parameters extend the digest ONLY
// when islands > 1 (islands <= 1 is the classic run regardless of the
// migration interval), so every pre-existing key stays byte-identical and the
// response cache keys identically whether interning is on or off.
func canonicalKey(graph *intern.GraphEntry, cluster platform.Cluster, model, algorithm string, seed int64, islands, migrationInterval int) string {
	b := make([]byte, 0, 96+len(cluster.Name)+len(model)+len(algorithm))
	b = append(append(b, 0), cluster.Name...)
	b = strconv.AppendInt(append(b, 0), int64(cluster.Procs), 10)
	b = strconv.AppendFloat(append(b, 0), cluster.SpeedGFlops, 'g', -1, 64)
	b = append(append(b, 0), model...)
	b = append(append(b, 0), algorithm...)
	b = strconv.AppendInt(append(b, 0), seed, 10)
	if islands > 1 {
		b = strconv.AppendInt(append(b, "\x00islands\x00"...), int64(islands), 10)
		b = strconv.AppendInt(append(b, 0), int64(migrationInterval), 10)
	}
	h := graph.KeyHash()
	h.Write(b)
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}
