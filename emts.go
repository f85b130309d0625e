// Package emts is a from-scratch Go implementation of EMTS — Evolutionary
// Moldable Task Scheduling — from Hunold & Lepping, "Evolutionary Scheduling
// of Parallel Tasks Graphs onto Homogeneous Clusters" (IEEE CLUSTER 2011),
// together with everything the paper's evaluation depends on: the CPA-family
// baseline heuristics (CPA, HCPA, MCPA, MCPA2), the Δ-critical-path seeding
// heuristic, the list-scheduling mapping step, the execution-time models
// (Amdahl's law and the synthetic non-monotonic Model 2), the PTG generators
// (FFT, Strassen, DAGGEN-style random graphs), a discrete cluster simulator,
// and the experiment harness that regenerates every figure of the paper.
//
// This package is the public facade; the implementation lives in internal/*.
//
// # Quick start
//
//	g, _ := emts.GenerateFFT(8, 42)                   // a 39-task FFT PTG
//	res, _ := emts.Optimize(g, emts.Grelon(), emts.Synthetic(), emts.EMTS5(42))
//	fmt.Printf("makespan: %.2f s\n", res.Makespan)
//	fmt.Print(res.Schedule.ASCII(100))
//
// See examples/ for complete programs and DESIGN.md for the architecture.
package emts

import (
	"context"
	"io"

	"emts/internal/alloc"
	"emts/internal/batch"
	"emts/internal/core"
	"emts/internal/dag"
	"emts/internal/daggen"
	"emts/internal/ea"
	"emts/internal/listsched"
	"emts/internal/model"
	"emts/internal/platform"
	"emts/internal/schedule"
	"emts/internal/search"
	"emts/internal/sim"
)

// Core types, re-exported from the internal packages. See the aliased types
// for full documentation.
type (
	// Graph is an immutable parallel task graph (PTG).
	Graph = dag.Graph
	// GraphBuilder assembles a Graph; obtain one with NewGraph.
	GraphBuilder = dag.Builder
	// Task is one moldable task of a PTG.
	Task = dag.Task
	// TaskID identifies a task within its graph.
	TaskID = dag.TaskID
	// Cluster is a homogeneous cluster: P identical processors of a given
	// speed in GFLOPS.
	Cluster = platform.Cluster
	// Model predicts the execution time of a moldable task on p processors.
	Model = model.Model
	// TimeTable is a fully materialized execution-time table for one graph
	// on one cluster.
	TimeTable = model.Table
	// Allocation maps each task to its processor count — the individual
	// encoding of the evolutionary algorithm.
	Allocation = schedule.Allocation
	// Schedule is a complete mapping of a PTG onto a cluster, with Gantt
	// (ASCII/SVG) rendering and full validation.
	Schedule = schedule.Schedule
	// Allocator is the allocation step of a two-step scheduler.
	Allocator = alloc.Allocator
	// Mutator generates EA offspring; see PaperMutator and UniformMutator.
	Mutator = ea.Mutator
	// Params configures an EMTS run; use EMTS5, EMTS10, or DefaultParams.
	Params = core.Params
	// Result is the outcome of an EMTS run.
	Result = core.Result
	// Report is the outcome of running any algorithm by name via Run.
	Report = sim.Report
	// RandomGraphConfig parametrizes the DAGGEN-style random generator.
	RandomGraphConfig = daggen.RandomConfig
	// CostConfig parametrizes the random task-complexity assignment.
	CostConfig = daggen.CostConfig
	// Profile is a per-processor utilization analysis of a schedule.
	Profile = schedule.Profile
	// GenStats is the per-generation statistics record of the EA; receive
	// them via Params.OnGeneration.
	GenStats = ea.GenStats
	// Strategy selects plus- or comma-selection (Params.Strategy).
	Strategy = ea.Strategy
	// Mapper is the reusable, allocation-free evaluation engine for the
	// mapping step: it owns all per-call scratch state, so repeated
	// Makespan/Map calls against one (graph, table) pair reuse arenas.
	// Not safe for concurrent use — one Mapper per goroutine.
	Mapper = listsched.Mapper
)

// Selection strategies for Params.Strategy.
const (
	// PlusStrategy is the paper's (μ+λ) selection.
	PlusStrategy = ea.Plus
	// CommaStrategy is (μ,λ) selection (future-work comparison).
	CommaStrategy = ea.Comma
)

// Migration topologies for Params.Topology (effective when Params.Islands
// exceeds 1; see the island model in DESIGN.md §17).
const (
	// TopologyRing passes migrants around a directed cycle (the default).
	TopologyRing = ea.TopologyRing
	// TopologyFull sends every island's migrants to every other island.
	TopologyFull = ea.TopologyFull
)

// NewProfile computes the utilization profile of a schedule.
func NewProfile(s *Schedule) *Profile { return schedule.NewProfile(s) }

// Batch-queue scenario types (Section II-A's motivating deployment).
type (
	// BatchJob is one PTG submission with an arrival time.
	BatchJob = batch.Job
	// BatchConfig drives a batch simulation.
	BatchConfig = batch.Config
	// BatchResult aggregates a batch simulation run.
	BatchResult = batch.Result
	// PartitionPolicy decides how many processors a job is granted.
	PartitionPolicy = batch.PartitionPolicy
)

// SimulateBatch runs the paper's motivating scenario: a stream of PTG jobs
// arrives at a space-shared cluster, each is granted a partition by the
// policy, and the configured PTG scheduling algorithm determines its run
// time on that partition.
func SimulateBatch(jobs []BatchJob, cfg BatchConfig) (*BatchResult, error) {
	return batch.Simulate(jobs, cfg)
}

// WholeClusterPolicy grants every job all processors (the paper's setting).
func WholeClusterPolicy() PartitionPolicy { return batch.WholeCluster{} }

// FractionPolicy grants each job the given fraction of the cluster.
func FractionPolicy(frac float64) PartitionPolicy { return batch.FixedFraction{Frac: frac} }

// WidthMatchedPolicy grants each job as many processors as its PTG's maximum
// task parallelism.
func WidthMatchedPolicy() PartitionPolicy { return batch.WidthMatched{} }

// NewGraph returns a builder for a PTG with the given name.
func NewGraph(name string) *GraphBuilder { return dag.NewBuilder(name) }

// ReadGraph decodes a PTG from its JSON file format and validates it.
func ReadGraph(r io.Reader) (*Graph, error) { return dag.Read(r) }

// ReadGraphDOT parses a Graphviz DOT digraph (including the output of
// Suter's DAGGEN tool, the paper's graph generator) into a PTG.
func ReadGraphDOT(r io.Reader) (*Graph, error) { return dag.ReadDOT(r) }

// Chti returns the 20-node, 4.3-GFLOPS Grid'5000 cluster of the paper.
func Chti() Cluster { return platform.Chti() }

// Grelon returns the 120-node, 3.1-GFLOPS Grid'5000 cluster of the paper.
func Grelon() Cluster { return platform.Grelon() }

// NewCluster returns a validated homogeneous cluster.
func NewCluster(name string, procs int, speedGFlops float64) (Cluster, error) {
	return platform.New(name, procs, speedGFlops)
}

// ReadCluster parses a platform file (JSON or one-line text format).
func ReadCluster(r io.Reader) (Cluster, error) { return platform.Read(r) }

// Amdahl returns Model 1 of the paper: T(v,p) = (α + (1-α)/p)·T(v,1).
func Amdahl() Model { return model.Amdahl{} }

// Synthetic returns Model 2 of the paper: Amdahl's law with non-monotonic
// penalties imitating PDGEMM's run-time characteristics.
func Synthetic() Model { return model.Synthetic{} }

// Downey returns the speedup model of Downey with average parallelism a and
// parallelism variance sigma.
func Downey(a, sigma float64) Model { return model.Downey{A: a, Sigma: sigma} }

// Monotonize wraps a model with its lower monotone envelope
// T'(v,p) = min over q <= p of T(v,q) — the related-work technique of
// Günther et al. that lets monotone-assuming heuristics run safely on
// non-monotonic models (a task allocated p processors runs its best q <= p
// configuration).
func Monotonize(m Model) Model { return model.Monotone{Inner: m} }

// ModelFunc adapts a closure into a Model — the hook for user-defined
// (possibly non-monotonic) empirical models; EMTS works with any of them.
func ModelFunc(name string, f func(v Task, p int, c Cluster) float64) Model {
	return model.Func{ModelName: name, F: f}
}

// NewTimeTable evaluates m for every task of g and processor count of c,
// validating that the model produces positive finite times.
func NewTimeTable(g *Graph, m Model, c Cluster) (*TimeTable, error) {
	return model.NewTable(g, m, c)
}

// EMTS5 returns the paper's (5+25)-EA preset, run for 5 generations.
func EMTS5(seed int64) Params { return core.EMTS5(seed) }

// EMTS10 returns the paper's (10+100)-EA preset, run for 10 generations.
func EMTS10(seed int64) Params { return core.EMTS10(seed) }

// DefaultParams is EMTS5, the configuration the paper recommends in practice.
func DefaultParams(seed int64) Params { return core.DefaultParams(seed) }

// Optimize runs EMTS on graph g scheduled onto cluster c under model m.
func Optimize(g *Graph, c Cluster, m Model, p Params) (*Result, error) {
	return OptimizeContext(context.Background(), g, c, m, p)
}

// OptimizeContext is Optimize with cooperative cancellation: the evolutionary
// loop observes ctx once per generation, so an in-flight optimization stops
// within one generation of cancellation. A run that completes is
// bit-identical to the same seed without a context.
func OptimizeContext(ctx context.Context, g *Graph, c Cluster, m Model, p Params) (*Result, error) {
	tab, err := model.NewTable(g, m, c)
	if err != nil {
		return nil, err
	}
	return core.RunContext(ctx, g, tab, p)
}

// OptimizeTable is Optimize for callers that already built the time table.
func OptimizeTable(g *Graph, tab *TimeTable, p Params) (*Result, error) {
	return core.Run(g, tab, p)
}

// Run executes an algorithm by name (see Algorithms) under a named model (see
// Models) and validates the resulting schedule. Names match in any letter
// case, and aliases resolve to their canonical name: "emts" to "emts5",
// "onestep" to "eft", "deltacp" to "delta-cp", "model1" to "amdahl" and
// "model2" to "synthetic".
func Run(g *Graph, c Cluster, modelName, algorithm string, seed int64) (*Report, error) {
	return sim.Run(g, c, modelName, algorithm, seed)
}

// RunContext is Run with cooperative cancellation (see OptimizeContext).
func RunContext(ctx context.Context, g *Graph, c Cluster, modelName, algorithm string, seed int64) (*Report, error) {
	return sim.RunContext(ctx, g, c, modelName, algorithm, seed)
}

// Typed sentinels distinguishing caller mistakes from internal failures in
// Run, RunContext, and Compare. Servers map them to 4xx responses.
var (
	// ErrUnknownAlgorithm reports an algorithm name outside Algorithms().
	ErrUnknownAlgorithm = sim.ErrUnknownAlgorithm
	// ErrUnknownModel reports a model name outside Models().
	ErrUnknownModel = sim.ErrUnknownModel
	// ErrBadCluster reports an invalid cluster description.
	ErrBadCluster = sim.ErrBadCluster
)

// Compare runs several algorithms on the same instance (sharing one
// execution-time table) and returns the reports sorted by makespan.
func Compare(g *Graph, c Cluster, modelName string, algorithms []string, seed int64) ([]*Report, error) {
	return sim.Compare(g, c, modelName, algorithms, seed)
}

// Algorithms lists the canonical algorithm names accepted by Run and
// Compare.
func Algorithms() []string { return sim.AlgorithmNames() }

// Models lists the canonical model names accepted by Run and Compare.
func Models() []string { return sim.ModelNames() }

// CPA returns the Critical Path and Area-based allocator.
func CPA() Allocator { return alloc.CPA{} }

// HCPA returns the Heterogeneous CPA allocator (≡ CPA on one homogeneous
// cluster, as used by the paper).
func HCPA() Allocator { return alloc.HCPA{} }

// MCPA returns the Modified CPA allocator with its per-level bound.
func MCPA() Allocator { return alloc.MCPA{} }

// MCPA2 returns the MCPA variant that lets critical tasks reclaim processors
// from non-critical tasks of the same level.
func MCPA2() Allocator { return alloc.MCPA2{} }

// BiCPA returns the bi-criteria allocator of Desprez & Suter (related work):
// theta in [0,1) weighs resource usage against makespan (0 = pure makespan).
func BiCPA(theta float64) Allocator { return alloc.BiCPA{Theta: theta} }

// DeltaCP returns the paper's Δ-critical-path seeding heuristic.
func DeltaCP(delta float64) Allocator { return alloc.DeltaCP{Delta: delta} }

// OneEach returns the one-processor-per-task baseline allocator.
func OneEach() Allocator { return alloc.OneEach{} }

// MapSchedule runs the list-scheduling mapping step for a given allocation,
// producing a validated, fully placed schedule.
func MapSchedule(g *Graph, tab *TimeTable, a Allocation) (*Schedule, error) {
	return listsched.Map(g, tab, a)
}

// MapScheduleInsertion is the insertion-based (gap-filling) variant of the
// mapping step: better packing on fragmented schedules at a higher
// scheduling cost.
func MapScheduleInsertion(g *Graph, tab *TimeTable, a Allocation) (*Schedule, error) {
	return listsched.MapInsertion(g, tab, a)
}

// Makespan maps the allocation and returns only the resulting makespan — the
// EMTS fitness function.
func Makespan(g *Graph, tab *TimeTable, a Allocation) (float64, error) {
	return listsched.Makespan(g, tab, a)
}

// NewMapper returns a reusable evaluation engine for repeated mapping of
// allocations of one graph onto one cluster. After warm-up, Mapper.Makespan
// performs zero heap allocations, which makes it the right primitive for
// custom search loops over allocations (EMTS itself uses one Mapper per
// evaluation worker internally).
func NewMapper(g *Graph, tab *TimeTable) (*Mapper, error) {
	return listsched.NewMapper(g, tab)
}

// DefaultCosts returns the paper's random task-complexity parameters
// (Section IV-C).
func DefaultCosts() CostConfig { return daggen.DefaultCosts() }

// GenerateFFT generates the FFT PTG for the given number of input points
// (2, 4, 8, 16, ... — powers of two) with randomized task complexities.
func GenerateFFT(points int, seed int64) (*Graph, error) {
	return daggen.FFT(points, daggen.DefaultCosts(), seed)
}

// GenerateStrassen generates the 23-task Strassen matrix-multiplication PTG
// with randomized task complexities.
func GenerateStrassen(seed int64) (*Graph, error) {
	return daggen.Strassen(daggen.DefaultCosts(), seed)
}

// GenerateRandom generates a DAGGEN-style random PTG.
func GenerateRandom(cfg RandomGraphConfig, seed int64) (*Graph, error) {
	return daggen.Random(cfg, daggen.DefaultCosts(), seed)
}

// SearchMethod is an alternative meta-heuristic on the EMTS encoding; see
// HillClimber, Annealer, and RandomSearch. The paper lists the comparison of
// search methods as future work (Section VI).
type SearchMethod = search.Method

// HillClimber returns first-improvement stochastic hill climbing.
func HillClimber() SearchMethod { return search.HillClimber{} }

// Annealer returns simulated annealing with geometric cooling.
func Annealer() SearchMethod { return search.Annealer{} }

// RandomSearch returns the uniform random-sampling baseline.
func RandomSearch() SearchMethod { return search.RandomSearch{} }

// OptimizeSearch runs an alternative search method against the same fitness
// function EMTS uses (the list-scheduling makespan), spending at most budget
// fitness evaluations. For a fair comparison, EMTS5 spends 130 evaluations
// and EMTS10 spends 1010.
func OptimizeSearch(g *Graph, tab *TimeTable, m SearchMethod, seeds []Allocation, budget int, seed int64) (Allocation, float64, error) {
	// The search methods evaluate sequentially, so one shared Mapper reuses
	// its scratch arenas across the whole budget.
	mapper, err := listsched.NewMapper(g, tab)
	if err != nil {
		return nil, 0, err
	}
	fitness := func(a schedule.Allocation, rejectAbove float64) (float64, error) {
		return mapper.Makespan(a)
	}
	res, err := m.Optimize(g.NumTasks(), tab.Procs(), seeds, fitness, budget, seed)
	if err != nil {
		return nil, 0, err
	}
	return res.Best.Alloc, res.Best.Fitness, nil
}

// PaperMutator returns the Eq. (1) mutation operator with the paper's
// parameters (shrink probability 0.2, σ₁ = σ₂ = 5).
func PaperMutator() Mutator { return ea.DefaultPaperMutator() }

// UniformMutator returns the uniform-resampling mutation operator used by the
// mutation ablation.
func UniformMutator() Mutator { return ea.UniformMutator{} }
