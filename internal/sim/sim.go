// Package sim is the simulator of Section IV: it ties platforms, PTGs,
// execution-time models, and scheduling algorithms together behind a uniform
// by-name interface, runs an algorithm on an instance, validates the
// resulting schedule, and reports the outcome. The CLI tools and the
// experiment harness are thin wrappers around this package.
package sim

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"emts/internal/alloc"
	"emts/internal/core"
	"emts/internal/dag"
	"emts/internal/ea"
	"emts/internal/listsched"
	"emts/internal/model"
	"emts/internal/onestep"
	"emts/internal/platform"
	"emts/internal/schedule"
)

// Typed sentinels for the by-name entry points, so callers serving untrusted
// requests can distinguish client mistakes (bad names, bad platform → 400)
// from internal failures (→ 500). The error text produced by the entry points
// is unchanged: the sentinels are wrapped into the existing messages.
var (
	// ErrUnknownAlgorithm reports an algorithm name outside AlgorithmNames.
	ErrUnknownAlgorithm = errors.New("sim: unknown algorithm")
	// ErrUnknownModel reports a model name outside ModelNames.
	ErrUnknownModel = errors.New("sim: unknown model")
	// ErrBadCluster reports an invalid platform description.
	ErrBadCluster = errors.New("sim: bad cluster")
)

// ModelNames lists the execution-time models available by name.
func ModelNames() []string {
	return []string{"amdahl", "synthetic", "synthetic-literal", "synthetic-monotone", "downey"}
}

// ModelByName resolves an execution-time model. The Downey model uses
// A = 64, sigma = 0.5 unless parametrized programmatically.
func ModelByName(name string) (model.Model, error) {
	switch strings.ToLower(name) {
	case "amdahl", "model1":
		return model.Amdahl{}, nil
	case "synthetic", "model2":
		return model.Synthetic{}, nil
	case "synthetic-literal":
		return model.SyntheticLiteral{}, nil
	case "synthetic-monotone":
		return model.Monotone{Inner: model.Synthetic{}}, nil
	case "downey":
		return model.Downey{A: 64, Sigma: 0.5}, nil
	}
	return nil, fmt.Errorf("%w %q (have %s)", ErrUnknownModel, name, strings.Join(ModelNames(), ", "))
}

// AlgorithmNames lists the scheduling algorithms available by name: the
// two-step heuristics (allocator + list-scheduling mapper), the one-step
// earliest-finish-time scheduler, and the two EMTS presets.
func AlgorithmNames() []string {
	return []string{"one", "cpa", "hcpa", "mcpa", "mcpa2", "bicpa", "delta-cp", "eft", "emts5", "emts10"}
}

// Report is the outcome of running one algorithm on one instance.
type Report struct {
	// Algorithm, Model, Graph, Cluster identify the run.
	Algorithm string
	Model     string
	Graph     string
	Cluster   platform.Cluster
	// Schedule is the validated schedule.
	Schedule *schedule.Schedule
	// Makespan is the optimization objective, in seconds.
	Makespan float64
	// Elapsed is the wall-clock time the algorithm took (allocation +
	// mapping; for EMTS the whole evolutionary optimization).
	Elapsed time.Duration
	// EMTS is non-nil for evolutionary runs and carries the EA details.
	EMTS *core.Result
}

// Utilization is the fraction of processor time spent busy.
func (r *Report) Utilization() float64 { return r.Schedule.Utilization() }

// Run executes the named algorithm on graph g under the named model on the
// cluster, using seed for all stochastic choices, and validates the result.
func Run(g *dag.Graph, cluster platform.Cluster, modelName, algorithm string, seed int64) (*Report, error) {
	return RunContext(context.Background(), g, cluster, modelName, algorithm, seed)
}

// RunContext is Run with cooperative cancellation: EMTS runs observe ctx once
// per generation (see core.RunContext) and the fast heuristics check it once
// up front, so a cancelled request stops within one generation.
func RunContext(ctx context.Context, g *dag.Graph, cluster platform.Cluster, modelName, algorithm string, seed int64) (*Report, error) {
	m, err := ModelByName(modelName)
	if err != nil {
		return nil, err
	}
	if err := cluster.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCluster, err)
	}
	tab, err := model.NewTable(g, m, cluster)
	if err != nil {
		return nil, err
	}
	return RunTableContext(ctx, g, cluster, tab, algorithm, seed)
}

// RunTable is Run for callers that already built the execution-time table
// (e.g. to amortize it across algorithms on the same instance).
func RunTable(g *dag.Graph, cluster platform.Cluster, tab *model.Table, algorithm string, seed int64) (*Report, error) {
	return RunTableContext(context.Background(), g, cluster, tab, algorithm, seed)
}

// Options tunes how a run executes: Workers affects only parallelism and
// OnGeneration only observes, so both leave results bit-identical — the
// determinism meta-tests enforce this. The one exception is the island-model
// group (Islands, MigrationInterval, MigrationCount, Topology): islands change
// which search the EA performs, so each distinct setting is a distinct
// deterministic result — still independent of Workers and GOMAXPROCS, and
// Islands <= 1 is bit-identical to the historical behavior. The zero value is
// the historical behavior.
type Options struct {
	// Workers bounds EMTS parallelism (0 = GOMAXPROCS): the starting
	// heuristics run concurrently on up to Workers goroutines, as does
	// fitness evaluation (see core.Params.Workers). The server's CPU
	// governor sets this per request so one lone request fans out to all
	// cores while concurrent requests degrade gracefully.
	Workers int
	// Islands, MigrationInterval, MigrationCount, and Topology configure the
	// island-model EA for EMTS algorithms (ignored by the one-shot
	// heuristics); see core.Params and ea.Config. Islands <= 1 is the
	// classic single population.
	Islands           int
	MigrationInterval int
	MigrationCount    int
	Topology          string
	// OnGeneration, when non-nil, observes per-generation EA statistics for
	// EMTS algorithms (ignored by the one-shot heuristics). It is called
	// from the run's goroutine after each generation's selection — the same
	// once-per-generation point RunContext checks ctx — so observation adds
	// zero cost to the hot fitness path and cannot perturb results (the
	// observer-transparency meta-test enforces bit-identity on/off).
	OnGeneration func(ea.GenStats)
}

// RunTableContext is RunTable with cooperative cancellation.
func RunTableContext(ctx context.Context, g *dag.Graph, cluster platform.Cluster, tab *model.Table, algorithm string, seed int64) (*Report, error) {
	return RunTableOpts(ctx, g, cluster, tab, algorithm, seed, Options{})
}

// RunTableOpts is RunTableContext with execution Options — the entry point
// the serving path uses to plug in the CPU governor's per-request worker
// budget and the async jobs' progress observer.
func RunTableOpts(ctx context.Context, g *dag.Graph, cluster platform.Cluster, tab *model.Table, algorithm string, seed int64, opt Options) (*Report, error) {
	rep := &Report{
		Algorithm: strings.ToLower(algorithm),
		Model:     tab.Name(),
		Graph:     g.Name(),
		Cluster:   cluster,
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sim: %s cancelled before start: %w", rep.Algorithm, err)
	}
	start := time.Now()
	switch rep.Algorithm {
	case "emts5", "emts10", "emts":
		params := core.EMTS5(seed)
		if rep.Algorithm == "emts10" {
			params = core.EMTS10(seed)
		}
		params.Workers = opt.Workers
		params.OnGeneration = opt.OnGeneration
		params.Islands = opt.Islands
		params.MigrationInterval = opt.MigrationInterval
		params.MigrationCount = opt.MigrationCount
		params.Topology = opt.Topology
		res, err := core.RunContext(ctx, g, tab, params)
		if err != nil {
			// Anytime contract (see core.RunContext): a mid-run cancellation
			// still yields the materialized incumbent. Validate and report it
			// exactly like a completed run, alongside the context error.
			if res == nil {
				return nil, err
			}
			rep.EMTS = res
			rep.Schedule = res.Schedule
			rep.Makespan = res.Makespan
			rep.Elapsed = time.Since(start)
			if verr := rep.Schedule.Validate(g, tab); verr != nil {
				return nil, fmt.Errorf("sim: %s produced an invalid schedule: %w", rep.Algorithm, verr)
			}
			return rep, err
		}
		rep.EMTS = res
		rep.Schedule = res.Schedule
		rep.Makespan = res.Makespan
	case "eft", "onestep":
		s, err := onestep.GreedyEFT{}.Schedule(g, tab)
		if err != nil {
			return nil, err
		}
		rep.Schedule = s
		rep.Makespan = s.Makespan()
	default:
		al, err := allocatorByName(rep.Algorithm, seed)
		if err != nil {
			return nil, err
		}
		a, err := al.Allocate(g, tab)
		if err != nil {
			return nil, err
		}
		s, err := listsched.Map(g, tab, a)
		if err != nil {
			return nil, err
		}
		rep.Schedule = s
		rep.Makespan = s.Makespan()
	}
	rep.Elapsed = time.Since(start)
	if err := rep.Schedule.Validate(g, tab); err != nil {
		return nil, fmt.Errorf("sim: %s produced an invalid schedule: %w", rep.Algorithm, err)
	}
	return rep, nil
}

func allocatorByName(name string, seed int64) (alloc.Allocator, error) {
	switch name {
	case "one":
		return alloc.OneEach{}, nil
	case "random":
		return alloc.Random{Seed: seed}, nil
	case "cpa":
		return alloc.CPA{}, nil
	case "hcpa":
		return alloc.HCPA{}, nil
	case "mcpa":
		return alloc.MCPA{}, nil
	case "mcpa2":
		return alloc.MCPA2{}, nil
	case "bicpa":
		return alloc.BiCPA{Theta: 0.5}, nil
	case "delta-cp", "deltacp":
		return alloc.DeltaCP{Delta: 0.9}, nil
	}
	return nil, fmt.Errorf("%w %q (have %s)",
		ErrUnknownAlgorithm, name, strings.Join(AlgorithmNames(), ", "))
}

// Compare runs several algorithms on the same instance (sharing one
// execution-time table and seed) and returns the reports sorted by makespan.
func Compare(g *dag.Graph, cluster platform.Cluster, modelName string, algorithms []string, seed int64) ([]*Report, error) {
	m, err := ModelByName(modelName)
	if err != nil {
		return nil, err
	}
	tab, err := model.NewTable(g, m, cluster)
	if err != nil {
		return nil, err
	}
	reports := make([]*Report, 0, len(algorithms))
	for _, algo := range algorithms {
		r, err := RunTable(g, cluster, tab, algo, seed)
		if err != nil {
			return nil, fmt.Errorf("sim: %s: %w", algo, err)
		}
		reports = append(reports, r)
	}
	sort.SliceStable(reports, func(i, j int) bool { return reports[i].Makespan < reports[j].Makespan })
	return reports, nil
}
