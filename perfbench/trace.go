package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"emts/internal/alloc"
	"emts/internal/core"
	"emts/internal/dag"
	"emts/internal/ea"
	"emts/internal/listsched"
	"emts/internal/model"
	"emts/internal/platform"
	"emts/internal/schedule"
)

// Span names. Every op of a traced window gets one root span; a run of the
// EMTS library, in the window or replayed after it, gets the children
// below. The replay roots time the single library calls the per-layer table
// names.
const (
	spanOp       = "op"             // one workload op, as its caller sees it
	spanReplay   = "replay"         // one request's graph re-run through the library
	spanInit     = "ea.init"        // call start → first generation boundary
	spanSeed     = "alloc.seed"     // one starting heuristic's Allocate (child of ea.init)
	spanGen      = "ea.gen"         // gap between consecutive generation boundaries
	spanFinalMap = "core.final_map" // last generation boundary → return
	spanTable    = "model.table"    // replayed model.NewTable on the op's graph
	spanMakespan = "listsched.map"  // replayed warm Mapper.Makespan on the op's best allocation
	spanScrape   = "server.metrics" // in-process /metrics sample during a serve window
	spanNoParent = 0
)

// span is one traced interval. Start and End are nanoseconds since the
// tracer's origin; Parent is 0 for a root. Spans of one op share Op.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pass nil.
type tracer struct {
	origin time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// id reserves a span id, so children can name a parent that is still open.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// add records a finished span under a reserved id.
func (t *tracer) add(id, parent int64, op int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedAllocator wraps a starting heuristic and records each Allocate as an
// alloc.seed span. It keeps the wrapped allocator's name and results, so a
// run seeded through it is bit-identical to one seeded directly.
type timedAllocator struct {
	alloc.Allocator
	tr     *tracer
	op     int
	parent int64
}

func (a timedAllocator) Allocate(g *dag.Graph, tab *model.Table) (schedule.Allocation, error) {
	start := time.Now()
	out, err := a.Allocator.Allocate(g, tab)
	a.tr.add(a.tr.id(), a.parent, a.op, spanSeed, start, time.Now())
	return out, err
}

// runEMTS runs core.Run for one op. With a tracer it seeds through the same
// allocators as core.DefaultSeeds, wrapped in timedAllocator, and observes
// generation boundaries through Params.OnGeneration; both leave the result
// unchanged. root names the op's root span (spanOp or spanReplay).
func runEMTS(tr *tracer, root string, op int, g *dag.Graph, tab *model.Table, p core.Params) (*core.Result, error) {
	if tr == nil {
		return core.Run(g, tab, p)
	}
	opID, initID := tr.id(), tr.id()
	seeds := core.DefaultSeeds(p.Seed)
	for i, s := range seeds {
		seeds[i] = timedAllocator{Allocator: s, tr: tr, op: op, parent: initID}
	}
	p.Seeds = seeds
	start := time.Now()
	last, gens := start, 0
	p.OnGeneration = func(ea.GenStats) {
		now := time.Now()
		if gens == 0 {
			tr.add(initID, opID, op, spanInit, start, now)
		} else {
			tr.add(tr.id(), opID, op, spanGen, last, now)
		}
		last = now
		gens++
	}
	res, err := core.Run(g, tab, p)
	end := time.Now()
	if gens > 0 {
		tr.add(tr.id(), opID, op, spanFinalMap, last, end)
	}
	tr.add(opID, spanNoParent, op, root, start, end)
	return res, err
}

// replayLayers re-runs the single library calls behind one op's layers,
// outside any timed window: model.NewTable on the op's graph, and a warm
// listsched Mapper.Makespan on the op's best allocation (the median of
// repeats, so a sub-microsecond timer step cannot dominate).
func replayLayers(tr *tracer, op int, g *dag.Graph, tab *model.Table, c platform.Cluster, best schedule.Allocation) error {
	start := time.Now()
	if _, err := model.NewTable(g, model.Synthetic{}, c); err != nil {
		return fmt.Errorf("replaying table build: %w", err)
	}
	tr.add(tr.id(), spanNoParent, op, spanTable, start, time.Now())

	mp, err := listsched.NewMapper(g, tab)
	if err != nil {
		return err
	}
	if _, err := mp.Makespan(best); err != nil { // warm the arenas
		return fmt.Errorf("replaying makespan: %w", err)
	}
	const repeats = 7
	times := make([]time.Duration, repeats)
	for i := range times {
		s := time.Now()
		if _, err := mp.Makespan(best); err != nil {
			return fmt.Errorf("replaying makespan: %w", err)
		}
		times[i] = time.Since(s)
	}
	// The span carries the median repeat, placed at the time of the replay.
	d := time.Duration(median(durations(times)))
	s := time.Now()
	tr.add(tr.id(), spanNoParent, op, spanMakespan, s, s.Add(d))
	return nil
}

// durations converts to float64 nanoseconds.
func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	return out
}

// emtsCounts sums the exact search counters of a set of EMTS runs.
type emtsCounts struct {
	runs, evals, gens, rejections, prefilter, cacheHits int
}

func (c *emtsCounts) add(r *core.Result) {
	c.runs++
	c.evals += r.Evaluations
	c.gens += r.Generations
	c.rejections += r.Rejections
	c.prefilter += r.PrefilterRejections
	c.cacheHits += r.CacheHits
}

// setEA writes the exact-count metrics.
func (c emtsCounts) setEA(m map[string]float64) {
	if c.runs == 0 || c.evals == 0 {
		return
	}
	m["ea.evals_per_op"] = float64(c.evals) / float64(c.runs)
	m["ea.generations_per_op"] = float64(c.gens) / float64(c.runs)
	m["ea.prefilter_reject_ratio"] = float64(c.prefilter) / float64(c.evals)
	m["ea.reject_ratio"] = float64(c.rejections) / float64(c.evals)
	m["ea.memo_hit_ratio"] = float64(c.cacheHits) / float64(c.evals)
}

// setLibraryLayers derives the library-layer timings from the spans of EMTS
// runs rooted at root, plus the replay spans:
//
//   - alloc.seed_ms: median over runs of the summed alloc.seed spans;
//   - ea.first_gen_ms: median self time of ea.init (its duration minus the
//     seeding inside it);
//   - ea.gen_ms: median ea.gen span;
//   - core.final_map_ms: median core.final_map span;
//   - ea.evals_per_s: evaluations over the summed EA time (ea.init self
//     time plus every ea.gen);
//   - model.table_ms and listsched.map_us: medians of the replay spans.
func setLibraryLayers(m map[string]float64, spans []span, root string, evals int) {
	roots := map[int64]bool{}
	for _, s := range spans {
		if s.Name == root {
			roots[s.ID] = true
		}
	}
	seedByInit := map[int64]time.Duration{}
	for _, s := range spans {
		if s.Name == spanSeed {
			seedByInit[s.Parent] += s.dur()
		}
	}
	var seedMS, firstMS, genMS, finalMS, tableMS, mapUS []float64
	var eaTime time.Duration
	for _, s := range spans {
		switch {
		case s.Name == spanInit && roots[s.Parent]:
			seed := seedByInit[s.ID]
			seedMS = append(seedMS, ms(seed))
			firstMS = append(firstMS, ms(s.dur()-seed))
			eaTime += s.dur() - seed
		case s.Name == spanGen && roots[s.Parent]:
			genMS = append(genMS, ms(s.dur()))
			eaTime += s.dur()
		case s.Name == spanFinalMap && roots[s.Parent]:
			finalMS = append(finalMS, ms(s.dur()))
		case s.Name == spanTable:
			tableMS = append(tableMS, ms(s.dur()))
		case s.Name == spanMakespan:
			mapUS = append(mapUS, float64(s.dur())/float64(time.Microsecond))
		}
	}
	m["alloc.seed_ms"] = median(seedMS)
	m["ea.first_gen_ms"] = median(firstMS)
	m["ea.gen_ms"] = median(genMS)
	m["core.final_map_ms"] = median(finalMS)
	m["model.table_ms"] = median(tableMS)
	m["listsched.map_us"] = median(mapUS)
	if eaTime > 0 {
		m["ea.evals_per_s"] = float64(evals) / eaTime.Seconds()
	}
}
