// Package activetime is a library for active-time scheduling: given
// preemptible jobs with windows and a machine that can run up to g
// jobs per discrete time slot, activate as few slots as possible while
// finishing every job inside its window.
//
// The centerpiece is the 9/5-approximation algorithm of Cao, Fineman,
// Li, Mestre, Russell and Umboh ("Brief Announcement: Nested
// Active-Time Scheduling", SPAA 2022) for instances whose job windows
// are nested (laminar), improving on the 2-approximation known for the
// general problem. The library also ships the classical baselines
// (minimal-feasible 3-approximation and a Kumar–Khuller-style
// right-to-left greedy), exact solvers for ground truth, the natural
// and Călinescu–Wang time-indexed LPs, the paper's integrality-gap
// families, and the §6 NP-completeness reduction chain.
//
// Quick start:
//
//	in, err := activetime.NewInstance(2, []activetime.Job{
//		{Processing: 2, Release: 0, Deadline: 6},
//		{Processing: 1, Release: 0, Deadline: 3},
//	})
//	res, err := activetime.Solve(in, activetime.AlgNested95)
//	fmt.Println(res.ActiveSlots, res.Schedule)
package activetime

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/flowfeas"
	"repro/internal/greedy"
	"repro/internal/instance"
	"repro/internal/lamtree"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Job is a preemptible job: Processing units of work to be placed in
// distinct slots of the window [Release, Deadline).
type Job = instance.Job

// Instance is an active-time scheduling instance (jobs plus the
// per-slot machine capacity G).
type Instance = instance.Instance

// Schedule assigns jobs to slots; see its Validate and NumActive
// methods.
type Schedule = sched.Schedule

// SolveStats is a snapshot of a solve's instrumentation: per-stage
// wall time, simplex/ratsimplex pivot counts, max-flow operation
// counts, branch-and-bound node counts and per-forest solve latency
// (see internal/metrics). Counters are deterministic for a fixed
// instance; stage times are wall-clock measurements.
type SolveStats = metrics.Stats

// Recorder accumulates instrumentation across solves; pass one via
// SolveOptions.Metrics to aggregate a whole sweep. It is safe for
// concurrent use.
type Recorder = metrics.Recorder

// Tracer collects hierarchical spans of a solve (pipeline stages,
// forest workers, LP and B&B sub-solvers) and exports them as Chrome
// trace-event JSON loadable in chrome://tracing or Perfetto; see
// internal/trace. Create one with NewTracer and pass it via
// SolveOptions.Trace or SolveTraced. A nil *Tracer disables tracing
// with near-zero overhead.
type Tracer = trace.Tracer

// NewTracer returns an empty span tracer.
func NewTracer() *Tracer { return trace.New() }

// NewInstance builds and validates an instance with capacity g.
func NewInstance(g int64, jobs []Job) (*Instance, error) {
	return instance.New(g, jobs)
}

// LoadInstance reads an instance from a JSON file.
func LoadInstance(path string) (*Instance, error) {
	return instance.LoadFile(path)
}

// Algorithm selects a solver in Solve.
type Algorithm string

// Available algorithms.
const (
	// AlgNested95 is the paper's 9/5-approximation; it requires
	// nested (laminar) job windows.
	AlgNested95 Algorithm = "nested95"
	// AlgCombinatorial is the lazy-activation solver for nested
	// windows: near-linear time, memory linear in jobs plus horizon,
	// exact on unit processing times and never worse than 2·OPT in
	// general. It is the only nested solver that scales to deep chains
	// and 10⁵–10⁶ jobs, where the LP tableau of AlgNested95 grows with
	// the fourth power of the nesting depth.
	AlgCombinatorial Algorithm = "comb"
	// AlgAuto routes per instance shape: non-nested windows go to
	// AlgGreedyMinimal; nested instances the LP can afford go
	// certificate-first (AlgCombinatorial, with AlgNested95 re-solving
	// only the components comb's schedule does not provably solve
	// optimally; see SolveCertificateFirstCtx); deep or huge nested
	// instances go to AlgCombinatorial alone. See Route for the exact
	// policy.
	AlgAuto Algorithm = "auto"
	// AlgGreedyMinimal deactivates slots left to right while feasible;
	// any minimal feasible solution is a 3-approximation.
	AlgGreedyMinimal Algorithm = "greedy-minimal"
	// AlgGreedyRTL deactivates right to left (Kumar–Khuller style).
	AlgGreedyRTL Algorithm = "greedy-rtl"
	// AlgExact computes the true optimum (exponential time; intended
	// for small instances and ground truth).
	AlgExact Algorithm = "exact"
	// AlgAllOpen opens every candidate slot (trivial baseline).
	AlgAllOpen Algorithm = "all-open"
)

// Algorithms lists every available algorithm.
func Algorithms() []Algorithm {
	return []Algorithm{AlgAuto, AlgNested95, AlgCombinatorial, AlgGreedyMinimal, AlgGreedyRTL, AlgExact, AlgAllOpen}
}

// Result is the outcome of Solve.
type Result struct {
	// Algorithm that produced the result.
	Algorithm Algorithm
	// Schedule is a feasible schedule (validated against the input).
	Schedule *Schedule
	// ActiveSlots is the objective value achieved.
	ActiveSlots int64
	// LPLowerBound is the strengthened-LP lower bound on OPT; only
	// set by AlgNested95.
	LPLowerBound float64
	// CertifiedRatio is ActiveSlots / LPLowerBound when the LP bound
	// is available; an instance-specific a-posteriori guarantee.
	CertifiedRatio float64
	// LowerBound is the laminar-tree lower bound on OPT, summed over
	// forest components; only set by the certificate-first AlgAuto
	// solve. ActiveSlots − LowerBound is the optimality gap, and a zero
	// gap certifies the schedule optimal.
	LowerBound int64
	// Stats holds the solve's instrumentation snapshot; only set by
	// AlgNested95, AlgCombinatorial and the certificate-first AlgAuto
	// solve.
	Stats *SolveStats
	// Route explains an AlgAuto dispatch (which solver ran and why);
	// nil when an algorithm was requested explicitly.
	Route *RouteDecision
	// Warm is retained solver state for warm-starting later near-miss
	// requests; only set by AlgCombinatorial when
	// SolveOptions.CaptureWarm was requested.
	Warm *WarmState
}

// Solve runs the chosen algorithm. All algorithms return a feasible,
// validated schedule or an error (in particular for infeasible
// instances, and for AlgNested95 on non-nested windows).
func Solve(in *Instance, alg Algorithm) (*Result, error) {
	return SolveTraced(in, alg, nil)
}

// SolveCtx is Solve with cooperative cancellation: when ctx is
// canceled or its deadline passes, the solve stops promptly (the
// nested95 pipeline checks between stages, per forest, per simplex
// pivot block and per max-flow BFS phase) and the returned error wraps
// ctx.Err(). A nil ctx behaves like context.Background().
func SolveCtx(ctx context.Context, in *Instance, alg Algorithm) (*Result, error) {
	return SolveTracedCtx(ctx, in, alg, nil)
}

// SolveTraced is Solve recording spans into tr (nil disables tracing):
// the nested95 pipeline emits its full span tree, the exact solver
// emits per-component branch-and-bound spans, and the remaining
// algorithms emit a single root span.
func SolveTraced(in *Instance, alg Algorithm, tr *Tracer) (*Result, error) {
	return SolveTracedCtx(context.Background(), in, alg, tr)
}

// SolveTracedCtx combines SolveCtx and SolveTraced. For AlgNested95,
// AlgCombinatorial and both greedy orders cancellation is cooperative
// throughout the solve, and AlgExact on general windows checks ctx
// once per branch-and-bound node. AlgAllOpen (one flow) and AlgExact
// on nested windows (intended for small instances) check ctx before
// starting.
func SolveTracedCtx(ctx context.Context, in *Instance, alg Algorithm, tr *Tracer) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch alg {
	case AlgAuto:
		dec := Route(in, nil, DefaultRouteLimits())
		var res *Result
		var err error
		if dec.Algorithm == AlgAuto {
			res, err = SolveCertificateFirstCtx(ctx, in, SolveOptions{Trace: tr})
		} else {
			res, err = SolveTracedCtx(ctx, in, dec.Algorithm, tr)
		}
		if res != nil {
			res.Route = &dec
		}
		return res, err
	case AlgNested95:
		return SolveNested95Ctx(ctx, in, SolveOptions{Trace: tr})
	case AlgCombinatorial:
		return SolveCombinatorialCtx(ctx, in, SolveOptions{Trace: tr})
	case AlgGreedyMinimal:
		sp := tr.StartSpan("solve", trace.String("algorithm", string(alg)))
		res, err := greedy.MinimalFeasibleCtx(ctx, in, greedy.LeftToRight)
		sp.End()
		if err != nil {
			return nil, err
		}
		return wrap(alg, res.Schedule), nil
	case AlgGreedyRTL:
		sp := tr.StartSpan("solve", trace.String("algorithm", string(alg)))
		res, err := greedy.MinimalFeasibleCtx(ctx, in, greedy.RightToLeft)
		sp.End()
		if err != nil {
			return nil, err
		}
		return wrap(alg, res.Schedule), nil
	case AlgAllOpen:
		sp := tr.StartSpan("solve", trace.String("algorithm", string(alg)))
		res, err := greedy.AllOpen(in)
		sp.End()
		if err != nil {
			return nil, err
		}
		return wrap(alg, res.Schedule), nil
	case AlgExact:
		sp := tr.StartSpan("solve", trace.String("algorithm", string(alg)))
		s, err := exactSchedule(ctx, in, sp)
		sp.End()
		if err != nil {
			return nil, err
		}
		return wrap(alg, s), nil
	default:
		return nil, fmt.Errorf("activetime: unknown algorithm %q", alg)
	}
}

func wrap(alg Algorithm, s *Schedule) *Result {
	return &Result{Algorithm: alg, Schedule: s, ActiveSlots: s.NumActive()}
}

// exactSchedule computes an optimal schedule via the exact solvers,
// dispatching to the far faster per-node-count search (with component
// decomposition) when the windows are nested. B&B spans are recorded
// under sp (nil disables tracing); the general search honors ctx.
func exactSchedule(ctx context.Context, in *Instance, sp *trace.Span) (*Schedule, error) {
	if !in.Nested() {
		_, slots, err := exact.SolveGeneralTrace(ctx, in, nil, sp)
		if err != nil {
			return nil, err
		}
		return flowfeas.ScheduleOnSlots(in, slots)
	}
	out := sched.New(in.G)
	comps, backmap := in.Components()
	for ci, comp := range comps {
		tree, err := lamtree.Build(comp)
		if err != nil {
			return nil, err
		}
		fsp := sp.StartChild("forest_exact", trace.Int("component", int64(ci)))
		_, counts, err := exact.SolveNestedTrace(tree, nil, fsp)
		fsp.End()
		if err != nil {
			return nil, err
		}
		s, err := flowfeas.ScheduleOnNodeCounts(tree, counts)
		if err != nil {
			return nil, err
		}
		for t, js := range s.Slots {
			for _, localID := range js {
				out.Assign(t, backmap[ci][localID])
			}
		}
	}
	if err := out.Validate(in); err != nil {
		return nil, fmt.Errorf("activetime: internal: exact schedule invalid: %w", err)
	}
	return out, nil
}

// SolveOptions tunes SolveNested95.
type SolveOptions struct {
	// ExactLP solves the strengthened LP in exact rational arithmetic
	// (slower; realizes the paper's exact-oracle assumption).
	ExactLP bool
	// Minimalize closes every removable slot after rounding; never
	// worse, often optimal, and the 9/5 guarantee is preserved.
	Minimalize bool
	// Compact places open slots to minimize power-on events
	// (fragments) at equal objective value.
	Compact bool
	// Workers bounds the number of goroutines solving independent
	// laminar forests concurrently; ≤ 1 solves sequentially. Results
	// are identical at any worker count.
	Workers int
	// Metrics optionally supplies an external recorder that
	// accumulates instrumentation across solves; when nil, each solve
	// gets a fresh recorder and Result.Stats covers exactly that
	// solve.
	Metrics *Recorder
	// Trace optionally supplies a span tracer that receives the
	// solve's hierarchical spans (pipeline stages, forest workers, LP
	// sub-solves); export them with Tracer.WriteChromeTrace. Nil
	// disables tracing.
	Trace *Tracer
	// CaptureWarm retains the combinatorial solver's final state on
	// Result.Warm so a cache can warm-start later near-miss requests
	// (raised g, job supersets) through SolveWarmCtx. Only
	// AlgCombinatorial honors it.
	CaptureWarm bool
}

// SolveNested95 runs the 9/5-approximation with explicit options.
func SolveNested95(in *Instance, opts SolveOptions) (*Result, error) {
	return SolveNested95Ctx(context.Background(), in, opts)
}

// SolveNested95Ctx is SolveNested95 with cooperative cancellation; see
// SolveCtx for the cancellation granularity.
func SolveNested95Ctx(ctx context.Context, in *Instance, opts SolveOptions) (*Result, error) {
	s, rep, err := core.SolveContext(ctx, in, core.Options{
		ExactLP:    opts.ExactLP,
		Minimalize: opts.Minimalize,
		Compact:    opts.Compact,
		Workers:    opts.Workers,
		Metrics:    opts.Metrics,
		Trace:      opts.Trace,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Algorithm:      AlgNested95,
		Schedule:       s,
		ActiveSlots:    s.NumActive(),
		LPLowerBound:   rep.LPValue,
		CertifiedRatio: rep.CertifiedRatio,
		Stats:          rep.Stats,
	}, nil
}

// Optimal returns the exact optimum objective value (exponential time;
// use on small instances).
func Optimal(in *Instance) (int64, error) {
	return exact.Opt(in)
}

// Feasible reports whether the instance admits any schedule (all
// candidate slots open).
func Feasible(in *Instance) bool {
	return flowfeas.CheckSlots(in, in.SortedSlots())
}

// ApproxRatio is the proven worst-case factor of AlgNested95.
const ApproxRatio = core.Ratio
