// Package sim is the simulator of Section IV: it ties platforms, PTGs,
// execution-time models, and scheduling algorithms together behind a uniform
// by-name interface, runs an algorithm on an instance, validates the
// resulting schedule, and reports the outcome. The names live in one place:
// a model table and an algorithm table, which Resolve turns into a Plan. The
// CLI tools, the experiment harness, the batch simulator and the server all
// resolve names here.
package sim

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"emts/internal/alloc"
	"emts/internal/core"
	"emts/internal/dag"
	"emts/internal/listsched"
	"emts/internal/model"
	"emts/internal/onestep"
	"emts/internal/platform"
	"emts/internal/schedule"
)

// Typed sentinels for the by-name entry points, so callers serving untrusted
// requests can distinguish client mistakes (bad names, bad platform → 400)
// from internal failures (→ 500). The sentinels are wrapped into the
// messages, which quote the offending name.
var (
	// ErrUnknownAlgorithm reports an algorithm name outside AlgorithmNames.
	ErrUnknownAlgorithm = errors.New("sim: unknown algorithm")
	// ErrUnknownModel reports a model name outside ModelNames.
	ErrUnknownModel = errors.New("sim: unknown model")
	// ErrBadCluster reports an invalid platform description.
	ErrBadCluster = errors.New("sim: bad cluster")
)

// names is the name column of the model and algorithm tables: a canonical
// name and its aliases, all lowercase.
type names struct {
	name    string
	aliases []string
}

// is reports whether the lowercased name s is the canonical name or an alias.
func (n names) is(s string) bool { return s == n.name || slices.Contains(n.aliases, s) }

// models is the model table, in ModelNames order. Each model's Name is its
// canonical name.
var models = []struct {
	names
	model model.Model
}{
	{names{"amdahl", []string{"model1"}}, model.Amdahl{}},
	{names{"synthetic", []string{"model2"}}, model.Synthetic{}},
	{names{"synthetic-literal", nil}, model.SyntheticLiteral{}},
	{names{"synthetic-monotone", nil}, model.Monotone{Inner: model.Synthetic{}}},
	{names{"downey", nil}, model.Downey{A: 64, Sigma: 0.5}},
}

// algorithms is the algorithm table, in AlgorithmNames order: the two-step
// heuristics (an allocator whose allocation list scheduling maps), the
// one-step earliest-finish-time scheduler (neither field set), the two EMTS
// presets, and the random allocator, listed last.
var algorithms = []struct {
	names
	emts      func(seed int64) core.Params
	allocator func(seed int64) alloc.Allocator
}{
	{names: names{"one", nil}, allocator: unseeded(alloc.OneEach{})},
	{names: names{"cpa", nil}, allocator: unseeded(alloc.CPA{})},
	{names: names{"hcpa", nil}, allocator: unseeded(alloc.HCPA{})},
	{names: names{"mcpa", nil}, allocator: unseeded(alloc.MCPA{})},
	{names: names{"mcpa2", nil}, allocator: unseeded(alloc.MCPA2{})},
	{names: names{"bicpa", nil}, allocator: unseeded(alloc.BiCPA{Theta: 0.5})},
	{names: names{"delta-cp", []string{"deltacp"}}, allocator: unseeded(alloc.DeltaCP{Delta: 0.9})},
	{names: names{"eft", []string{"onestep"}}},
	{names: names{"emts5", []string{"emts"}}, emts: core.EMTS5},
	{names: names{"emts10", nil}, emts: core.EMTS10},
	{names: names{"random", nil}, allocator: func(seed int64) alloc.Allocator { return alloc.Random{Seed: seed} }},
}

// unseeded is the constructor of an allocator that ignores the seed.
func unseeded(a alloc.Allocator) func(int64) alloc.Allocator {
	return func(int64) alloc.Allocator { return a }
}

// ModelNames lists the canonical names of the execution-time models.
func ModelNames() []string {
	out := make([]string, len(models))
	for i, m := range models {
		out[i] = m.name
	}
	return out
}

// AlgorithmNames lists the canonical names of the scheduling algorithms.
func AlgorithmNames() []string {
	out := make([]string, len(algorithms))
	for i, a := range algorithms {
		out[i] = a.name
	}
	return out
}

// Plan is a run resolved from names (see Resolve): the model, the canonical
// names, and what the algorithm needs. An EMTS preset sets Params, a two-step
// heuristic sets Allocator, and the one-step EFT scheduler sets neither.
// Running a plan does not change it, so one plan can run many instances.
type Plan struct {
	// Model is the execution-time model. ModelName and Algorithm are the
	// canonical names, whatever spelling or alias was resolved.
	Model     model.Model
	ModelName string
	Algorithm string
	// Params is the seeded EMTS preset. Callers may set Workers and
	// OnGeneration, which leave results bit-identical, and the island fields
	// (Islands, MigrationInterval, MigrationCount, Topology), each setting of
	// which is its own deterministic search; see core.Params.
	Params *core.Params
	// Allocator is the allocation step of a two-step heuristic.
	Allocator alloc.Allocator
}

// Resolve looks up a model and an algorithm by canonical name or alias, in
// any letter case, and returns the plan of a run seeded with seed. The model
// is looked up first, so when both names are unknown the error names the
// model. Errors wrap ErrUnknownModel or ErrUnknownAlgorithm.
func Resolve(modelName, algorithm string, seed int64) (*Plan, error) {
	m, err := ModelByName(modelName)
	if err != nil {
		return nil, err
	}
	p, err := resolveAlgorithm(algorithm, seed)
	if err != nil {
		return nil, err
	}
	p.Model, p.ModelName = m, m.Name()
	return p, nil
}

// ModelByName resolves an execution-time model by canonical name or alias,
// in any letter case. The Downey model uses A = 64, sigma = 0.5 unless
// parametrized programmatically.
func ModelByName(name string) (model.Model, error) {
	name = strings.ToLower(name)
	for _, m := range models {
		if m.is(name) {
			return m.model, nil
		}
	}
	return nil, fmt.Errorf("%w %q (have %s)", ErrUnknownModel, name, strings.Join(ModelNames(), ", "))
}

// resolveAlgorithm is the algorithm half of Resolve: a plan without a model.
func resolveAlgorithm(name string, seed int64) (*Plan, error) {
	name = strings.ToLower(name)
	for _, a := range algorithms {
		if !a.is(name) {
			continue
		}
		p := &Plan{Algorithm: a.name}
		if a.emts != nil {
			params := a.emts(seed)
			p.Params = &params
		}
		if a.allocator != nil {
			p.Allocator = a.allocator(seed)
		}
		return p, nil
	}
	return nil, fmt.Errorf("%w %q (have %s)", ErrUnknownAlgorithm, name, strings.Join(AlgorithmNames(), ", "))
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

// RunContext is Run with cooperative cancellation (see Plan.RunTable).
func RunContext(ctx context.Context, g *dag.Graph, cluster platform.Cluster, modelName, algorithm string, seed int64) (*Report, error) {
	p, err := Resolve(modelName, algorithm, seed)
	if err != nil {
		return nil, err
	}
	return p.Run(ctx, g, cluster)
}

// RunTable is Run for callers that already built the execution-time table
// (e.g. to amortize it across algorithms on the same instance).
func RunTable(g *dag.Graph, cluster platform.Cluster, tab *model.Table, algorithm string, seed int64) (*Report, error) {
	p, err := resolveAlgorithm(algorithm, seed)
	if err != nil {
		return nil, err
	}
	return p.RunTable(context.Background(), g, cluster, tab)
}

// Run validates the cluster, builds the execution-time table of g under the
// plan's model, and runs the plan on it.
func (p *Plan) Run(ctx context.Context, g *dag.Graph, cluster platform.Cluster) (*Report, error) {
	if err := cluster.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCluster, err)
	}
	tab, err := model.NewTable(g, p.Model, cluster)
	if err != nil {
		return nil, err
	}
	return p.RunTable(ctx, g, cluster, tab)
}

// RunTable runs the plan on g with a table built for cluster, and validates
// the schedule. EMTS runs observe ctx once per generation (see
// core.RunContext) and the heuristics check it once up front, so a cancelled
// run stops within one generation. An EMTS run cancelled mid-run still
// yields its incumbent (the anytime contract of core.RunContext): it is
// validated and reported like a completed run, alongside the context error.
func (p *Plan) RunTable(ctx context.Context, g *dag.Graph, cluster platform.Cluster, tab *model.Table) (*Report, error) {
	rep := &Report{
		Algorithm: p.Algorithm,
		Model:     tab.Name(),
		Graph:     g.Name(),
		Cluster:   cluster,
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sim: %s cancelled before start: %w", rep.Algorithm, err)
	}
	start := time.Now()
	var runErr error
	switch {
	case p.Params != nil:
		res, err := core.RunContext(ctx, g, tab, *p.Params)
		if res == nil {
			return nil, err
		}
		rep.EMTS, rep.Schedule, rep.Makespan, runErr = res, res.Schedule, res.Makespan, err
	case p.Allocator != nil:
		a, err := p.Allocator.Allocate(g, tab)
		if err != nil {
			return nil, err
		}
		s, err := listsched.Map(g, tab, a)
		if err != nil {
			return nil, err
		}
		rep.Schedule, rep.Makespan = s, s.Makespan()
	default:
		s, err := onestep.GreedyEFT{}.Schedule(g, tab)
		if err != nil {
			return nil, err
		}
		rep.Schedule, rep.Makespan = s, s.Makespan()
	}
	rep.Elapsed = time.Since(start)
	if err := rep.Schedule.Validate(g, tab); err != nil {
		return nil, fmt.Errorf("sim: %s produced an invalid schedule: %w", rep.Algorithm, err)
	}
	return rep, runErr
}

// Compare runs several algorithms on the same instance (sharing one
// execution-time table and seed) and returns the reports sorted by makespan.
func Compare(g *dag.Graph, cluster platform.Cluster, modelName string, algos []string, seed int64) ([]*Report, error) {
	m, err := ModelByName(modelName)
	if err != nil {
		return nil, err
	}
	tab, err := model.NewTable(g, m, cluster)
	if err != nil {
		return nil, err
	}
	reports := make([]*Report, 0, len(algos))
	for _, algo := range algos {
		r, err := RunTable(g, cluster, tab, algo, seed)
		if err != nil {
			return nil, fmt.Errorf("sim: %s: %w", algo, err)
		}
		reports = append(reports, r)
	}
	sort.SliceStable(reports, func(i, j int) bool { return reports[i].Makespan < reports[j].Makespan })
	return reports, nil
}
