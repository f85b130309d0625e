package server

import (
	"encoding/json"
	"math"
	"net/http"
	"reflect"
	"strconv"

	"emts/internal/dag"
	"emts/internal/platform"
	"emts/internal/schedule"
	"emts/internal/sim"
)

// ScheduleResponse is the body of a successful POST /v1/schedule:
// marshalResponse writes json.Marshal's encoding of it, and clients decode
// the body into it. The structure deliberately excludes wall-clock fields
// (sim.Report.Elapsed): the body is a pure function of the request, which
// is what makes cached replays byte-identical to recomputation. Timing
// lives in /metrics and the request logs.
type ScheduleResponse struct {
	Algorithm   string           `json:"algorithm"`
	Model       string           `json:"model"`
	Graph       string           `json:"graph"`
	Tasks       int              `json:"tasks"`
	Cluster     platform.Cluster `json:"cluster"`
	Makespan    float64          `json:"makespan"`
	Utilization float64          `json:"utilization"`
	// EMTS-only diagnostics; zero for the one-shot heuristics.
	Evaluations int       `json:"evaluations,omitempty"`
	Rejections  int       `json:"rejections,omitempty"`
	History     []float64 `json:"history,omitempty"`
	// Generations counts the EA generations actually completed. For an
	// anytime answer (a cancelled async job) it is smaller than the
	// preset's generation budget.
	Generations int `json:"generations,omitempty"`
	// Islands is the island count for island-model EA runs; omitted for the
	// classic single population, so pre-island responses keep their bytes.
	Islands int `json:"islands,omitempty"`
	// Schedule is the fully validated placement.
	Schedule *schedule.Schedule `json:"schedule"`
}

// marshalResponse projects a simulator report onto the wire format: the
// bytes json.Marshal writes for the report's ScheduleResponse, and a
// newline. They are appended directly, without reflection, and a value JSON
// cannot represent fails with json.Marshal's error
// (FuzzResponseMatchesJSON).
func marshalResponse(rep *sim.Report) ([]byte, error) {
	s := rep.Schedule
	size := 256 + 80*len(s.Entries)
	for _, e := range s.Entries {
		size += 4 * len(e.Procs)
	}
	var (
		evaluations, rejections, generations, islands int
		history                                       []float64
	)
	if rep.EMTS != nil {
		evaluations, rejections, generations = rep.EMTS.Evaluations, rep.EMTS.Rejections, rep.EMTS.Generations
		history = rep.EMTS.History
		if rep.EMTS.Islands > 1 {
			islands = rep.EMTS.Islands
		}
		size += 24 * len(history)
	}
	b := make([]byte, 0, size)
	b = append(b, `{"algorithm":`...)
	b = dag.AppendJSONString(b, rep.Algorithm)
	b = append(b, `,"model":`...)
	b = dag.AppendJSONString(b, rep.Model)
	b = append(b, `,"graph":`...)
	b = dag.AppendJSONString(b, rep.Graph)
	b = append(b, `,"tasks":`...)
	b = strconv.AppendInt(b, int64(len(s.Entries)), 10)
	b = append(b, `,"cluster":{"name":`...)
	b = dag.AppendJSONString(b, rep.Cluster.Name)
	b = append(b, `,"procs":`...)
	b = strconv.AppendInt(b, int64(rep.Cluster.Procs), 10)
	b = append(b, `,"speed_gflops":`...)
	b, err := appendFloat(b, rep.Cluster.SpeedGFlops)
	if err != nil {
		// json.Marshal reaches the cluster through its MarshalJSON.
		return nil, &json.MarshalerError{Type: reflect.TypeFor[platform.Cluster](), Err: err}
	}
	b = append(b, `},"makespan":`...)
	if b, err = appendFloat(b, rep.Makespan); err != nil {
		return nil, err
	}
	b = append(b, `,"utilization":`...)
	if b, err = appendFloat(b, rep.Utilization()); err != nil {
		return nil, err
	}
	b = appendOmitEmpty(b, `,"evaluations":`, evaluations)
	b = appendOmitEmpty(b, `,"rejections":`, rejections)
	if len(history) > 0 {
		b = append(b, `,"history":[`...)
		for i, f := range history {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendFloat(b, f); err != nil {
				return nil, err
			}
		}
		b = append(b, ']')
	}
	b = appendOmitEmpty(b, `,"generations":`, generations)
	b = appendOmitEmpty(b, `,"islands":`, islands)
	b = append(b, `,"schedule":{"graph":`...)
	b = dag.AppendJSONString(b, s.Graph)
	b = append(b, `,"procs":`...)
	b = strconv.AppendInt(b, int64(s.Procs), 10)
	b = append(b, `,"entries":`...)
	if s.Entries == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, e := range s.Entries {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"task":`...)
			b = strconv.AppendInt(b, int64(e.Task), 10)
			b = append(b, `,"start":`...)
			if b, err = appendFloat(b, e.Start); err != nil {
				return nil, err
			}
			b = append(b, `,"end":`...)
			if b, err = appendFloat(b, e.End); err != nil {
				return nil, err
			}
			b = append(b, `,"procs":`...)
			if e.Procs == nil {
				b = append(b, "null"...)
			} else {
				b = append(b, '[')
				for k, p := range e.Procs {
					if k > 0 {
						b = append(b, ',')
					}
					b = strconv.AppendInt(b, int64(p), 10)
				}
				b = append(b, ']')
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, "}}\n"...), nil
}

// appendFloat appends f as json.Marshal encodes a float64, and fails with
// its error on a value JSON cannot represent.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	return dag.AppendJSONFloat(b, f), nil
}

// appendOmitEmpty appends an omitempty int field: the key and n, unless n
// is 0.
func appendOmitEmpty(b []byte, key string, n int) []byte {
	if n == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), int64(n), 10)
}

// errorResponse is the body of every non-200 JSON response.
type errorResponse struct {
	Error string `json:"error"`
	Field string `json:"field,omitempty"`
}

// errorBody serializes an error response; it cannot fail.
func errorBody(msg, field string) []byte {
	b, _ := json.Marshal(errorResponse{Error: msg, Field: field})
	return append(b, '\n')
}

func writeJSONError(w http.ResponseWriter, code int, msg, field string) {
	writeBody(w, code, errorBody(msg, field))
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	b, err := json.Marshal(v)
	if err != nil {
		writeJSONError(w, http.StatusInternalServerError, err.Error(), "")
		return
	}
	writeBody(w, code, append(b, '\n'))
}

func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
}
