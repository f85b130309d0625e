package main

import (
	"strings"
	"testing"

	"emts/internal/loadgen"
)

// passing is a synthetic artifact that clears every gate.
func passing() artifact {
	phase := func(rps, cache, graph float64, instances map[string]int) loadgen.Summary {
		return loadgen.Summary{
			Mode:  "closed",
			Codes: map[string]int{"200": 100, "429": 3},
			ScheduleStats: &loadgen.ScheduleStats{
				AchievedRPS: rps, CacheHitPct: cache, InternGraphPct: graph, Instances: instances,
			},
		}
	}
	return artifact{
		RouterOpen:      phase(25, 60, 80, map[string]int{"b1": 40, "b2": 30, "b3": 30}),
		RoundRobin:      phase(25, 20, 30, map[string]int{"b1": 34, "b2": 33, "b3": 33}),
		RouterClosed:    phase(30, 70, 90, nil),
		Single:          phase(10, 10, 20, nil),
		ThroughputRatio: 3,
		ByteIdentical:   true,
	}
}

// TestGate checks that a passing artifact passes and that each violation,
// on its own, fails with its message.
func TestGate(t *testing.T) {
	fiveXX := func(s *loadgen.Summary) { s.Codes = map[string]int{"200": 99, "503": 1} }
	for _, tc := range []struct {
		name   string
		mutate func(a *artifact)
		want   string
	}{
		{"passes", func(a *artifact) {}, ""},
		{"graph intern", func(a *artifact) { a.RouterOpen.InternGraphPct = a.RoundRobin.InternGraphPct },
			"graph-intern hit rate: router 30.0% <= roundrobin 30.0%"},
		{"cache", func(a *artifact) { a.RouterOpen.CacheHitPct = 19.5 },
			"response-cache hit rate: router 19.5% <= roundrobin 20.0%"},
		{"ratio", func(a *artifact) { a.ThroughputRatio = 1.99 },
			"throughput: router 30.0 req/s < 2x single 10.0 req/s"},
		{"byte identity", func(a *artifact) { a.ByteIdentical = false },
			"routed responses not byte-identical to direct"},
		{"5xx router_open", func(a *artifact) { fiveXX(&a.RouterOpen) }, "router_open: 1 5xx responses"},
		{"5xx roundrobin_open", func(a *artifact) { fiveXX(&a.RoundRobin) }, "roundrobin_open: 1 5xx responses"},
		{"5xx router_closed", func(a *artifact) { fiveXX(&a.RouterClosed) }, "router_closed: 1 5xx responses"},
		{"5xx single_closed", func(a *artifact) { fiveXX(&a.Single) }, "single_closed: 1 5xx responses"},
		{"one instance", func(a *artifact) { a.RouterOpen.Instances = map[string]int{"b1": 100} },
			"routed traffic reached only 1 backend(s)"},
	} {
		art := passing()
		tc.mutate(&art)
		err := gate(&art)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: gate passed, want %q", tc.name, tc.want)
			continue
		}
		if got := strings.TrimPrefix(err.Error(), "gates failed:\n  "); got != tc.want {
			t.Errorf("%s: gate failed with %q, want only %q", tc.name, got, tc.want)
		}
	}
}
