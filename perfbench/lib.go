package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"emts/internal/core"
)

// Sizes of lib-emts10-reject. One op is one EMTS10 run of about 7 ms on
// two workers of a 2-vCPU host, so a run of --seconds s executes
// libOpsPerSecond·s ops, a window of about s seconds there.
const (
	libCorpusSize   = 128
	libOpsPerSecond = 135
)

// libParams is the op: EMTS10 with the Section VI rejection strategy and
// one evaluation worker per CPU.
func libParams(seed int64, workers int) core.Params {
	p := core.EMTS10(seed)
	p.UseRejection = true
	p.Workers = workers
	return p
}

// libOp is one entry of the seeded op sequence.
type libOp struct {
	in     *instance
	eaSeed int64
}

// runLib is the lib-emts10-reject workload: one closed-loop caller runs
// EMTS10 with rejection in process over a seeded corpus of 100-task
// irregular DAGGEN PTGs on Grelon, a new EA seed per op.
func runLib(cfg config) (*outcome, error) {
	var corpus []*instance
	setups := make([]float64, setupReps)
	for r := range setups {
		runtime.GC() // collect the previous set-up, so peak memory does not stack
		start := time.Now()
		if r == 0 {
			start = processStart
		}
		rng := rand.New(rand.NewSource(cfg.seed))
		var err error
		if corpus, err = libCorpus(rng, libCorpusSize); err != nil {
			return nil, err
		}
		// Warm-up: every corpus entry once, with seeds the window never uses.
		for i, in := range corpus {
			if _, err := checkLibOp(nil, i, libOp{in, -int64(i) - 1}, cfg.nproc); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		setups[r] = time.Since(start).Seconds()
	}

	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	ops := make([]libOp, cfg.seconds*libOpsPerSecond)
	for k := range ops {
		ops[k] = libOp{corpus[k%len(corpus)], rng.Int63()}
	}

	out := &outcome{metrics: map[string]float64{}}
	plain := timeLib(nil, ops, cfg.nproc, out)
	if !cfg.trace {
		plain.setEndToEnd(out.metrics, setupMedian(setups))
		return out, nil
	}

	tr := newTracer()
	traced := timeLib(tr, ops, cfg.nproc, out)
	var counts emtsCounts
	for _, r := range traced.results {
		if r != nil { // nil: the op failed and was counted
			counts.add(r)
		}
	}
	// Replays, outside the window: the table build and a warm map of the
	// best allocation, once per corpus entry.
	for k, op := range ops[:len(corpus)] {
		if res := traced.results[k]; res != nil {
			if err := replayLayers(tr, k, op.in.g, op.in.tab, op.in.cluster, res.Alloc); err != nil {
				return nil, err
			}
		}
	}
	m := out.metrics
	counts.setEA(m)
	setLibraryLayers(m, tr.snapshot(), spanOp, counts.evals)
	m["host.steal_pct"] = traced.win.stealPct
	m["trace.overhead_pct"] = 100 * (plain.throughput()/traced.throughput() - 1)
	return out, tr.write(cfg.traceOut)
}

// timeLib runs ops in one timed window, checking every result inside the
// loop, and counts them into out.
func timeLib(tr *tracer, ops []libOp, workers int, out *outcome) *timed {
	t := &timed{lat: make([]time.Duration, 0, len(ops)), done: make([]time.Duration, 0, len(ops))}
	if tr != nil {
		t.results = make([]*core.Result, len(ops))
	}
	w := startWindow()
	for k, op := range ops {
		start := time.Now()
		res, err := checkLibOp(tr, k, op, workers)
		end := time.Now()
		t.lat = append(t.lat, end.Sub(start))
		t.done = append(t.done, end.Sub(w.start))
		out.attempted++
		if err != nil {
			out.fail(err)
			continue
		}
		t.relSum += op.in.mcpa / res.Makespan
		t.rels++
		if tr != nil {
			t.results[k] = res
		}
	}
	t.win = w.stop()
	t.rssMB = peakRSSMB()
	return t
}

// checkLibOp runs one op and checks its output: the schedule validates
// against the graph and table, and the makespan is no worse than the best
// starting heuristic's.
func checkLibOp(tr *tracer, k int, op libOp, workers int) (*core.Result, error) {
	res, err := runEMTS(tr, spanOp, k, op.in.g, op.in.tab, libParams(op.eaSeed, workers))
	if err != nil {
		return nil, err
	}
	if err := res.Schedule.Validate(op.in.g, op.in.tab); err != nil {
		return nil, err
	}
	if best := res.BestSeedMakespan(); res.Makespan > best {
		return nil, fmt.Errorf("%s: makespan %g worse than best seed %g", op.in.g.Name(), res.Makespan, best)
	}
	return res, nil
}
