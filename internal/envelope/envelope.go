// Package envelope is the wire envelope of a schedule request, the body of
// POST /v1/schedule and POST /v1/jobs, and its one decoder. emts-serve
// parses every body with Decode; emts-router takes a body's shard key from
// the Graph that Decode delimits; emts-loadgen marshals its bodies from
// ScheduleRequest. Because both tiers run the same decoder, the router
// shards an accepted body by exactly the graph bytes the backend's graph
// intern keys on (DESIGN.md §15).
package envelope

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"emts/internal/dag"
)

// ScheduleRequest is the body of POST /v1/schedule and POST /v1/jobs. Graph
// is the PTG JSON file format (the structure produced by emts-daggen and
// dag.Graph's MarshalJSON); Cluster selects a platform preset or describes
// one inline.
type ScheduleRequest struct {
	// Graph is the PTG in its JSON file format.
	Graph json.RawMessage `json:"graph"`
	// Cluster selects the platform.
	Cluster ClusterSpec `json:"cluster"`
	// Model names the execution-time model (default "synthetic").
	Model string `json:"model,omitempty"`
	// Algorithm names the scheduler (default "emts5").
	Algorithm string `json:"algorithm,omitempty"`
	// Seed drives every stochastic choice; equal requests give equal
	// responses.
	Seed int64 `json:"seed,omitempty"`
	// TimeoutMS optionally tightens the server's per-request deadline. It can
	// only lower the server limit, never raise it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Islands selects the island-model EA for EMTS algorithms: 0 or 1 is the
	// classic single population, N > 1 runs N coupled subpopulations (see
	// ea.Config.Islands). Bounded by the server's MaxIslands cap.
	Islands int `json:"islands,omitempty"`
	// MigrationInterval is the generation period between island migrations
	// (0 picks the default; ignored when Islands <= 1).
	MigrationInterval int `json:"migration_interval,omitempty"`
}

// ClusterSpec names a platform preset ("chti", "grelon") or describes a
// homogeneous cluster inline. Preset and the inline fields are mutually
// exclusive.
type ClusterSpec struct {
	Preset      string  `json:"preset,omitempty"`
	Name        string  `json:"name,omitempty"`
	Procs       int     `json:"procs,omitempty"`
	SpeedGFlops float64 `json:"speed_gflops,omitempty"`
}

// Decode decodes a request body: one JSON object with only
// ScheduleRequest's fields. What follows the object is rejected unless it
// is empty or its first byte after whitespace is a closing bracket or
// brace, which encoding/json's Decoder.More ignores. The fields are not
// validated: an empty Graph, a negative count or an unknown name is left to
// the caller.
//
// The body is decoded in one pass by scan when it is in the plain JSON
// subset of dag.Scanner, and by decodeJSON (encoding/json) otherwise. On
// every body scan accepts, encoding/json decodes the same request, so which
// decoder ran never shows in the result or the error. The error text is
// the reference decoder's.
func Decode(body []byte) (ScheduleRequest, error) {
	if req, ok := scan(body); ok {
		return req, nil
	}
	return decodeJSON(body)
}

// errTrailingData rejects a second document after the request object, a
// smuggling smell.
var errTrailingData = errors.New("trailing data after request object")

// decodeJSON decodes the envelope with encoding/json: the reference decoder,
// which alone decides acceptance and error text for every body outside the
// scanner's subset.
func decodeJSON(body []byte) (ScheduleRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req ScheduleRequest
	if err := dec.Decode(&req); err != nil {
		return ScheduleRequest{}, fmt.Errorf("malformed JSON: %v", err)
	}
	if dec.More() {
		return ScheduleRequest{}, errTrailingData
	}
	return req, nil
}

// Keys of the request envelope, for dag.Scanner.Fields.
var (
	requestFields = []string{"graph", "cluster", "model", "algorithm", "seed", "timeout_ms", "islands", "migration_interval"}
	clusterFields = []string{"preset", "name", "procs", "speed_gflops"}
)

// scan decodes body in one pass with a dag.Scanner. The graph is not
// decoded, only delimited: Graph aliases its bytes in body, exactly the
// bytes encoding/json would copy into the RawMessage. It reports false,
// and Decode falls back to decodeJSON, when body leaves the scanner's
// subset, has a key that is not a field name spelled exactly, or repeats a
// key (encoding/json matches keys case-insensitively and merges repeated
// ones), or has anything but whitespace after the object.
func scan(body []byte) (req ScheduleRequest, ok bool) {
	s := dag.NewScanner(body)
	cluster := func(name string) bool {
		var ok bool
		switch name {
		case "preset":
			req.Cluster.Preset, ok = s.String()
		case "name":
			req.Cluster.Name, ok = s.String()
		case "procs":
			req.Cluster.Procs, ok = s.Int()
		case "speed_gflops":
			req.Cluster.SpeedGFlops, ok = s.Float()
		}
		return ok
	}
	ok = s.Fields(requestFields, func(name string) bool {
		var ok bool
		switch name {
		case "graph":
			req.Graph, ok = s.Skip()
		case "cluster":
			ok = s.Fields(clusterFields, cluster)
		case "model":
			req.Model, ok = s.String()
		case "algorithm":
			req.Algorithm, ok = s.String()
		case "seed":
			req.Seed, ok = s.Int64()
		case "timeout_ms":
			req.TimeoutMS, ok = s.Int64()
		case "islands":
			req.Islands, ok = s.Int()
		case "migration_interval":
			req.MigrationInterval, ok = s.Int()
		}
		return ok
	})
	return req, ok && s.End()
}
