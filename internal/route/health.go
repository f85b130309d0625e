package route

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBackendDraining classifies a /readyz probe that answered but reported
// draining (503, or a 200 whose JSON body says draining — belt and braces:
// the status code is the contract, the body is detail).
var ErrBackendDraining = errors.New("route: backend draining")

// errBackendStatus classifies any other non-200 probe answer.
var errBackendStatus = errors.New("route: backend not ready")

// readyzBody is the JSON detail internal/server's /readyz emits
// ({"draining":bool,"queue_depth":n,"inflight":n}). Older backends answer
// plain text; the decoder failing is not a probe failure.
type readyzBody struct {
	Draining   bool `json:"draining"`
	QueueDepth int  `json:"queue_depth"`
	Inflight   int  `json:"inflight"`
}

// HealthConfig tunes the checker. Zero values get defaults from NewChecker.
type HealthConfig struct {
	// Interval between probe rounds (default 500ms).
	Interval time.Duration
	// Timeout per probe (default 2s).
	Timeout time.Duration
	// EjectAfter is the number of consecutive probe failures that ejects a
	// backend from the routing table (default 3).
	EjectAfter int
	// ReadmitAfter is the number of consecutive probe successes that
	// re-admits an ejected backend (default 2). Re-admission is deliberately
	// slower than a single success so a flapping backend cannot thrash the
	// table.
	ReadmitAfter int
	// Probe overrides the HTTP /readyz probe (tests). nil selects the real
	// one.
	Probe func(ctx context.Context, b Backend) error
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.Interval <= 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.ReadmitAfter <= 0 {
		c.ReadmitAfter = 2
	}
	return c
}

// backendHealth is one backend's consecutive-outcome state. Guarded by
// Checker.mu.
type backendHealth struct {
	backend Backend
	healthy bool
	fails   int // consecutive probe failures while healthy
	oks     int // consecutive probe successes while ejected
}

// Checker probes every configured backend's /readyz on a fixed interval and
// maintains the healthy rendezvous Table. Backends start healthy (the router
// must route before the first probe round completes); EjectAfter consecutive
// failures eject one, ReadmitAfter consecutive successes re-admit it. Every
// transition swaps a freshly built Table in atomically and counts a
// rebalance — readers holding the old snapshot drain against it untouched.
type Checker struct {
	cfg    HealthConfig
	client *http.Client

	mu     sync.Mutex
	states []*backendHealth // fixed membership, ID order

	table atomic.Pointer[Table]

	ejections    atomic.Uint64
	readmissions atomic.Uint64
	rebalances   atomic.Uint64

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// NewChecker builds a checker over the full (fixed) membership and starts
// its probe loop. Call Stop to end it.
func NewChecker(backends []Backend, cfg HealthConfig) (*Checker, error) {
	full, err := NewTable(backends)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	c := &Checker{
		cfg: cfg,
		client: &http.Client{
			Timeout: cfg.Timeout,
		},
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if c.cfg.Probe == nil {
		c.cfg.Probe = c.probeHTTP
	}
	for _, b := range full.Backends() {
		c.states = append(c.states, &backendHealth{backend: b, healthy: true})
	}
	c.table.Store(full)
	go c.loop()
	return c, nil
}

// Table returns the current healthy snapshot. Never nil; may be empty.
func (c *Checker) Table() *Table {
	return c.table.Load()
}

// Stats reports lifetime transition counters.
func (c *Checker) Stats() (ejections, readmissions, rebalances uint64) {
	return c.ejections.Load(), c.readmissions.Load(), c.rebalances.Load()
}

// Healthy reports each backend's current verdict, in ID order.
func (c *Checker) Healthy() map[string]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]bool, len(c.states))
	for _, st := range c.states {
		out[st.backend.ID] = st.healthy
	}
	return out
}

// Stop ends the probe loop and waits for it to exit.
func (c *Checker) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
}

// loop runs probe rounds until stopped.
func (c *Checker) loop() {
	defer close(c.done)
	ticker := time.NewTicker(c.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			c.probeRound()
		}
	}
}

// probeRound probes every backend once (sequentially — the set is small and
// each probe is bounded by Timeout) and applies transitions.
func (c *Checker) probeRound() {
	// Snapshot the membership outside any lock: states is append-once at
	// construction, only the fields mutate (under mu, in record).
	for _, st := range c.states {
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.Timeout)
		err := c.cfg.Probe(ctx, st.backend)
		cancel()
		c.record(st, err)
	}
}

// record applies one probe outcome to one backend's counters and rebuilds
// the healthy table on a transition. The probe itself already happened — the
// lock only covers counter updates and the table swap.
func (c *Checker) record(st *backendHealth, err error) {
	c.mu.Lock()
	changed := false
	if err != nil {
		st.oks = 0
		if st.healthy {
			st.fails++
			if st.fails >= c.cfg.EjectAfter {
				st.healthy = false
				st.fails = 0
				changed = true
				c.ejections.Add(1)
			}
		}
	} else {
		st.fails = 0
		if !st.healthy {
			st.oks++
			if st.oks >= c.cfg.ReadmitAfter {
				st.healthy = true
				st.oks = 0
				changed = true
				c.readmissions.Add(1)
			}
		}
	}
	var healthy []Backend
	if changed {
		for _, s := range c.states {
			if s.healthy {
				healthy = append(healthy, s.backend)
			}
		}
	}
	c.mu.Unlock()
	if changed {
		// Membership already sorted and unique; NewTable cannot fail.
		t, _ := NewTable(healthy)
		c.table.Store(t)
		c.rebalances.Add(1)
	}
}

// probeHTTP is the production probe: GET /readyz, expect 200, and treat an
// explicit draining flag in the JSON detail as not-ready even on 200.
func (c *Checker) probeHTTP(ctx context.Context, b Backend) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.URL+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusServiceUnavailable {
			return ErrBackendDraining
		}
		return errBackendStatus
	}
	var rb readyzBody
	if err := json.Unmarshal(body, &rb); err == nil && rb.Draining {
		return ErrBackendDraining
	}
	return nil
}
