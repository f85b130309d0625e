package server

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// logger emits structured request logs as JSON lines. Field order is fixed by
// the accessLog struct, so log lines are grep- and jq-stable.
type logger struct {
	mu sync.Mutex
	w  io.Writer
}

// accessLog is one request log record.
type accessLog struct {
	TS     string  `json:"ts"`
	Level  string  `json:"level"`
	Req    string  `json:"req"`
	Method string  `json:"method"`
	Path   string  `json:"path"`
	Code   int     `json:"code"`
	DurMS  float64 `json:"dur_ms"`
	Cache  string  `json:"cache,omitempty"`
}

func (l *logger) log(rec accessLog) {
	if l == nil || l.w == nil {
		return
	}
	rec.TS = time.Now().UTC().Format(time.RFC3339Nano)
	rec.Level = "info"
	if rec.Code >= 500 {
		rec.Level = "error"
	} else if rec.Code >= 400 {
		rec.Level = "warn"
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	b = append(b, '\n')
	l.mu.Lock()
	l.w.Write(b)
	l.mu.Unlock()
}
