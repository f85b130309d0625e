// Package batch simulates the deployment scenario that motivates the paper's
// makespan objective (Section II-A):
//
//	"To execute a PTG on a cluster, the user first requests a time slot from
//	 the local job scheduler (e.g., PBS). After the application has been
//	 granted several processors, the PTG scheduler computes a schedule while
//	 trying to minimize the overall execution time of the job."
//
// A stream of PTG jobs arrives at a space-shared cluster. A partition policy
// decides how many processors each job is granted; the chosen PTG scheduling
// algorithm (MCPA, EMTS, ...) then determines the job's run time on that
// partition. The simulator packs the jobs onto the cluster (FCFS, optionally
// with conservative backfilling) and reports queueing and turnaround
// statistics — the end-to-end numbers a cluster operator would care about
// when choosing a PTG scheduler.
package batch

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"emts/internal/dag"
	"emts/internal/model"
	"emts/internal/platform"
	"emts/internal/sim"
	"emts/internal/stats"
)

// Job is one PTG submission.
type Job struct {
	// ID identifies the job in reports.
	ID int
	// Graph is the submitted PTG.
	Graph *dag.Graph
	// Arrival is the submission time in seconds.
	Arrival float64
}

// PartitionPolicy decides how many processors the batch scheduler grants a
// job on a given cluster.
type PartitionPolicy interface {
	// Name identifies the policy.
	Name() string
	// Grant returns the partition size in [1, cluster.Procs].
	Grant(job Job, cluster platform.Cluster) int
}

// WholeCluster grants every job all processors — the paper's own setting
// (one PTG, whole platform).
type WholeCluster struct{}

// Name implements PartitionPolicy.
func (WholeCluster) Name() string { return "whole-cluster" }

// Grant implements PartitionPolicy.
func (WholeCluster) Grant(_ Job, c platform.Cluster) int { return c.Procs }

// FixedFraction grants a fixed fraction of the cluster (at least one
// processor), enabling space sharing between jobs.
type FixedFraction struct {
	// Frac in ]0, 1] is the fraction of processors granted.
	Frac float64
}

// Name implements PartitionPolicy.
func (f FixedFraction) Name() string { return fmt.Sprintf("fraction-%g", f.Frac) }

// Grant implements PartitionPolicy.
func (f FixedFraction) Grant(_ Job, c platform.Cluster) int {
	p := int(f.Frac * float64(c.Procs))
	if p < 1 {
		p = 1
	}
	if p > c.Procs {
		p = c.Procs
	}
	return p
}

// WidthMatched grants each job as many processors as its PTG's maximum task
// parallelism (capped by the cluster), a simple application-aware policy.
type WidthMatched struct{}

// Name implements PartitionPolicy.
func (WidthMatched) Name() string { return "width-matched" }

// Grant implements PartitionPolicy.
func (WidthMatched) Grant(j Job, c platform.Cluster) int {
	w := j.Graph.MaxWidth()
	if w < 1 {
		w = 1
	}
	if w > c.Procs {
		w = c.Procs
	}
	return w
}

// Config drives one batch simulation.
type Config struct {
	// Cluster is the shared platform.
	Cluster platform.Cluster
	// ModelName selects the execution-time model (sim.ModelNames).
	ModelName string
	// Algorithm selects the PTG scheduler (sim.AlgorithmNames).
	Algorithm string
	// Policy decides partition sizes; nil means WholeCluster.
	Policy PartitionPolicy
	// Backfill enables out-of-order starts: a job may start before an
	// earlier arrival if enough processors are idle. False is strict FCFS.
	Backfill bool
	// Seed drives the PTG scheduler.
	Seed int64
}

// JobResult records the fate of one job.
type JobResult struct {
	ID int
	// Procs is the granted partition size.
	Procs int
	// Duration is the PTG schedule's makespan on the partition.
	Duration float64
	// Start and Finish are the job's slot on the shared cluster.
	Start, Finish float64
	// Wait is Start minus the job's arrival.
	Wait float64
}

// Turnaround is the job's total time in the system.
func (r JobResult) Turnaround() float64 { return r.Finish - r.Start + r.Wait }

// Result aggregates one simulation run.
type Result struct {
	Policy    string
	Algorithm string
	Jobs      []JobResult
	// MeanWait, MeanTurnaround, Makespan summarize the run; Utilization is
	// *allocated* processor-time (partition size x job duration) over
	// Makespan * P — how full the batch scheduler keeps the machine, not
	// how busy the processors are inside each PTG schedule (see
	// schedule.Profile for that).
	MeanWait       float64
	MeanTurnaround float64
	Makespan       float64
	Utilization    float64
}

// Simulate runs the batch scenario: every job's run time on its granted
// partition is computed with the configured PTG scheduling algorithm, then
// jobs are packed FCFS (optionally with backfilling) onto the cluster.
func Simulate(jobs []Job, cfg Config) (*Result, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("batch: no jobs")
	}
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, err
	}
	policy := cfg.Policy
	if policy == nil {
		policy = WholeCluster{}
	}

	// Phase 1: partition sizes and per-job durations (PTG scheduling on a
	// virtual sub-cluster of the granted size). The names resolve once, and
	// tables are memoized per (graph, partition), so a stream of repeated
	// PTGs on a shared policy builds each V×P table once.
	plan, err := sim.Resolve(cfg.ModelName, cfg.Algorithm, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("batch: %w", err)
	}
	type tabKey struct {
		g    *dag.Graph
		part platform.Cluster
	}
	tabs := make(map[tabKey]*model.Table)
	ordered := append([]Job(nil), jobs...)
	sort.SliceStable(ordered, func(i, j int) bool {
		//schedlint:allow floateq -- exact tie-break: (arrival, job ID) must be a strict total order so FCFS admission is deterministic
		if ordered[i].Arrival != ordered[j].Arrival {
			return ordered[i].Arrival < ordered[j].Arrival
		}
		return ordered[i].ID < ordered[j].ID
	})
	results := make([]JobResult, len(ordered))
	for i, job := range ordered {
		if job.Arrival < 0 {
			return nil, fmt.Errorf("batch: job %d has negative arrival %g", job.ID, job.Arrival)
		}
		procs := policy.Grant(job, cfg.Cluster)
		if procs < 1 || procs > cfg.Cluster.Procs {
			return nil, fmt.Errorf("batch: policy %s granted %d procs for job %d", policy.Name(), procs, job.ID)
		}
		part := platform.Cluster{
			Name:        fmt.Sprintf("%s-part%d", cfg.Cluster.Name, procs),
			Procs:       procs,
			SpeedGFlops: cfg.Cluster.SpeedGFlops,
		}
		key := tabKey{g: job.Graph, part: part}
		tab, ok := tabs[key]
		if !ok {
			tab, err = model.NewTable(job.Graph, plan.Model, part)
			if err != nil {
				return nil, fmt.Errorf("batch: job %d: %w", job.ID, err)
			}
			tabs[key] = tab
		}
		rep, err := plan.RunTable(context.Background(), job.Graph, part, tab)
		if err != nil {
			return nil, fmt.Errorf("batch: job %d: %w", job.ID, err)
		}
		results[i] = JobResult{ID: job.ID, Procs: procs, Duration: rep.Makespan}
	}

	// Phase 2: pack partitions onto the cluster.
	dispatch(ordered, results, cfg.Cluster.Procs, cfg.Backfill)

	res := &Result{Policy: policy.Name(), Algorithm: plan.Algorithm, Jobs: results}
	summarize(res, cfg.Cluster.Procs, results)
	return res, nil
}

// dispatch packs the pre-scheduled jobs onto procs processors, filling
// Start/Finish/Wait of results (parallel to ordered, which is sorted by
// (arrival, ID)). Strict FCFS dispatches in arrival order and a job never
// starts before an earlier-queued job; with backfill the dispatcher instead
// always commits the pending job that can start earliest (ties: earlier
// arrival, then ID), so small jobs slip past blocked wide ones.
//
// Jobs only ever occupy the k earliest-free processors and no output names a
// physical processor, so availability is kept as a sorted multiset of free
// times rather than a per-processor array. That makes a feasibility probe
// O(1) — avail[k-1] IS the time k processors are free — and a commit a
// single O(P) merge: the k displaced entries all become Finish, which is >=
// each of them, so sliding the smaller survivors left and filling the gap
// restores sorted order without re-sorting. The naive per-processor
// formulation re-sorted avail on every probe, costing O(n²·P log P) across a
// backfill run; this one is O(n² + n·P).
func dispatch(ordered []Job, results []JobResult, procs int, backfill bool) {
	avail := make([]float64, procs) // sorted ascending, always
	feasibleStart := func(i int) float64 {
		start := avail[results[i].Procs-1] // Procs earliest-free processors
		if a := ordered[i].Arrival; a > start {
			start = a
		}
		return start
	}
	commit := func(i int, start float64) {
		r := &results[i]
		r.Start = start
		r.Finish = start + r.Duration
		r.Wait = start - ordered[i].Arrival
		// Occupy the r.Procs earliest-free processors: drop avail[:k], merge
		// k copies of Finish into the sorted tail.
		k := r.Procs
		tail := avail[k:]
		m := sort.SearchFloat64s(tail, r.Finish)
		copy(avail, tail[:m])      // survivors below Finish slide left
		for j := m; j < m+k; j++ { // the k new entries, all equal
			avail[j] = r.Finish
		}
		// tail[m:] already occupies avail[m+k:] — untouched and in order.
	}
	if backfill {
		pending := make([]int, len(results))
		for i := range pending {
			pending[i] = i
		}
		for len(pending) > 0 {
			bestK := 0
			bestStart := feasibleStart(pending[0])
			for k := 1; k < len(pending); k++ {
				if s := feasibleStart(pending[k]); s < bestStart {
					bestK, bestStart = k, s
				}
			}
			commit(pending[bestK], bestStart)
			pending = append(pending[:bestK], pending[bestK+1:]...)
		}
	} else {
		prevStart := 0.0
		for i := range results {
			start := feasibleStart(i)
			if prevStart > start {
				start = prevStart
			}
			commit(i, start)
			prevStart = start
		}
	}
}

// summarize fills the aggregate fields of res from the dispatched jobs.
func summarize(res *Result, procs int, results []JobResult) {
	waits := make([]float64, len(results))
	turns := make([]float64, len(results))
	busy := 0.0
	for i, r := range results {
		waits[i] = r.Wait
		turns[i] = r.Turnaround()
		busy += r.Duration * float64(r.Procs)
		if r.Finish > res.Makespan {
			res.Makespan = r.Finish
		}
	}
	res.MeanWait = stats.Mean(waits)
	res.MeanTurnaround = stats.Mean(turns)
	if res.Makespan > 0 {
		res.Utilization = busy / (res.Makespan * float64(procs))
	}
}

// Format renders the aggregate report.
func (r *Result) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "batch run: %d jobs, policy %s, scheduler %s\n", len(r.Jobs), r.Policy, r.Algorithm)
	fmt.Fprintf(&sb, "  mean wait:       %10.2f s\n", r.MeanWait)
	fmt.Fprintf(&sb, "  mean turnaround: %10.2f s\n", r.MeanTurnaround)
	fmt.Fprintf(&sb, "  total makespan:  %10.2f s\n", r.Makespan)
	fmt.Fprintf(&sb, "  utilization:     %10.1f%%\n", 100*r.Utilization)
	return sb.String()
}
