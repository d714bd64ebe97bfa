// Package core implements the paper's primary contribution: the
// 9/5-approximation algorithm for nested active-time scheduling. The
// pipeline is
//
//  1. build the window tree and canonicalize it (lamtree),
//  2. build and solve the strengthened LP of Figure 1a (nestlp),
//  3. transform the LP solution per Lemma 3.1,
//  4. round bottom-up per Algorithm 1, giving an integral per-node
//     open-count vector x̃ with x̃([m]) ≤ (9/5)·x([m]) (Lemma 3.3),
//  5. extract a concrete schedule through the Lemma 4.1 flow network.
//
// Feasibility of x̃ is guaranteed by the paper's Theorem 4.5; the
// implementation re-verifies it with a flow check and, purely as a
// defense against floating-point LP noise, can repair a failed vector
// by opening additional slots (counted in the Report — zero in all
// observed runs).
package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/flowfeas"
	"repro/internal/instance"
	"repro/internal/lamtree"
	"repro/internal/metrics"
	"repro/internal/nestlp"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Ratio is the proven approximation factor.
const Ratio = 9.0 / 5.0

// Report describes one solved component or instance.
type Report struct {
	// LPValue is the optimal value of the strengthened LP, a lower
	// bound on OPT.
	LPValue float64
	// RoundedSlots is Σ_i x̃(i), the open-slot budget after rounding.
	RoundedSlots int64
	// ActiveSlots is the number of slots actually used by the final
	// schedule (≤ RoundedSlots: a slot opened by x̃ may end up empty).
	ActiveSlots int64
	// Repairs counts slots added by the numeric repair step; expected
	// to be zero.
	Repairs int64
	// Minimalized counts slots removed by the optional minimalization
	// post-pass (Options.Minimalize).
	Minimalized int64
	// CertifiedRatio is ActiveSlots / LPValue, an a-posteriori
	// certificate on this instance (≤ 9/5 whenever Repairs == 0).
	CertifiedRatio float64
	// Stats is a snapshot of the solve's instrumentation: per-stage
	// wall time, simplex pivots, max-flow operations, and so on (see
	// internal/metrics). When Options.Metrics supplied an external
	// recorder, the snapshot reflects that recorder's cumulative state.
	// Only set on whole-instance reports (SolveWithOptions), not on
	// per-component ones.
	Stats *metrics.Stats
}

// merge accumulates component reports into a whole-instance report.
func (r *Report) merge(o Report) {
	r.LPValue += o.LPValue
	r.RoundedSlots += o.RoundedSlots
	r.ActiveSlots += o.ActiveSlots
	r.Repairs += o.Repairs
	r.Minimalized += o.Minimalized
	if r.LPValue > 0 {
		r.CertifiedRatio = float64(r.ActiveSlots) / r.LPValue
	}
}

// Options tunes Solve.
type Options struct {
	// ExactLP solves the strengthened LP with exact rational
	// arithmetic instead of float64 simplex. Slower, but realizes the
	// paper's exact-oracle assumption literally. Recommended only for
	// small instances and verification runs.
	ExactLP bool
	// Minimalize post-processes the rounded count vector by closing
	// every slot whose removal keeps the instance feasible. The output
	// never gets worse, so the 9/5 guarantee is preserved; on many
	// instances it recovers the optimum.
	Minimalize bool
	// Compact chooses the concrete open slots inside each node region
	// to minimize fragmentation (machine power-on events) instead of
	// taking the leftmost ones. The objective value is unchanged.
	Compact bool
	// Workers bounds the number of goroutines solving independent
	// laminar forests (disjoint components) concurrently. Values ≤ 1
	// solve sequentially. The result — schedule, objective, and all
	// metric counters — is identical at any worker count; only wall
	// time changes.
	Workers int
	// Metrics, when non-nil, receives the solve's instrumentation
	// (and may accumulate across many solves, e.g. in an experiment
	// sweep). When nil, a fresh recorder is used so Report.Stats
	// covers exactly one solve. The recorder is safe for concurrent
	// use; Workers > 1 shares it across forest workers.
	Metrics *metrics.Recorder
	// Trace, when non-nil, receives hierarchical spans for the solve:
	// a root "solve" span, one lane per forest solve (annotated with
	// component and worker indices), a child span per pipeline stage,
	// and "simplex"/"ratsimplex" spans from the LP substrate. Nil
	// disables tracing at the cost of a nil check per span site.
	Trace *trace.Tracer
}

// Solve runs the 9/5-approximation on a nested instance and returns a
// feasible schedule with its report. It returns an error if the
// instance is not nested or not feasible.
func Solve(in *instance.Instance) (*sched.Schedule, Report, error) {
	return SolveWithOptions(in, Options{})
}

// SolveWithOptions is Solve with explicit options. Independent laminar
// forests (disjoint components) are solved concurrently when
// opts.Workers > 1; component schedules are merged in component order,
// so the output is deterministic at any worker count.
func SolveWithOptions(in *instance.Instance, opts Options) (*sched.Schedule, Report, error) {
	return SolveContext(context.Background(), in, opts)
}

// SolveContext is SolveWithOptions with cooperative cancellation: ctx
// is checked between pipeline stages, before each forest solve, and
// inside the float-simplex pivot loop and every Dinic BFS phase, so a
// canceled or expired context stops the solve promptly. The returned
// error then wraps ctx.Err() (matchable with errors.Is against
// context.Canceled / context.DeadlineExceeded). A nil ctx behaves
// like context.Background().
func SolveContext(ctx context.Context, in *instance.Instance, opts Options) (*sched.Schedule, Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := in.Validate(); err != nil {
		return nil, Report{}, err
	}
	if !in.Nested() {
		return nil, Report{}, fmt.Errorf("core: instance windows are not nested")
	}
	rec := opts.Metrics
	if rec == nil {
		rec = new(metrics.Recorder)
	}
	out := sched.New(in.G)
	var total Report
	comps, backmap := in.Components()

	root := opts.Trace.StartSpan("solve",
		trace.Int("jobs", int64(in.N())),
		trace.Int("g", in.G),
		trace.Int("forests", int64(len(comps))))
	defer root.End()

	type compResult struct {
		s   *sched.Schedule
		rep Report
		err error
	}
	results := make([]compResult, len(comps))
	solveOne := func(ci, worker int) {
		// Per-forest cancellation check: a canceled context stops the
		// pool from starting new forest solves.
		if err := ctx.Err(); err != nil {
			results[ci] = compResult{err: err}
			return
		}
		fsp := root.StartLane("forest_solve",
			trace.Int("component", int64(ci)),
			trace.Int("worker", int64(worker)),
			trace.Int("jobs", int64(comps[ci].N())))
		start := time.Now()
		s, rep, err := solveComponent(ctx, comps[ci], opts, rec, fsp)
		rec.ForestSolveNS.Observe(int64(time.Since(start)))
		rec.ForestsSolved.Inc()
		fsp.End()
		results[ci] = compResult{s: s, rep: rep, err: err}
	}

	workers := opts.Workers
	if workers > len(comps) {
		workers = len(comps)
	}
	if workers <= 1 {
		for ci := range comps {
			solveOne(ci, 0)
		}
	} else {
		// Bounded worker pool over forest indices. Workers share the
		// recorder (atomic counters) and write only results[ci].
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				for ci := range idx {
					solveOne(ci, w)
				}
			}(w)
		}
		for ci := range comps {
			idx <- ci
		}
		close(idx)
		wg.Wait()
	}

	if err := ctx.Err(); err != nil {
		return nil, Report{}, err
	}
	for ci, res := range results {
		if res.err != nil {
			return nil, Report{}, fmt.Errorf("core: component %d: %w", ci, res.err)
		}
		for t, js := range res.s.Slots {
			for _, localID := range js {
				out.Assign(t, backmap[ci][localID])
			}
		}
		total.merge(res.rep)
	}
	_, stopValidate := startStage(rec, root, metrics.StageValidate)
	err := out.Validate(in)
	stopValidate()
	if err != nil {
		return nil, Report{}, fmt.Errorf("core: internal: produced invalid schedule: %w", err)
	}
	total.ActiveSlots = out.NumActive()
	if total.LPValue > 0 {
		total.CertifiedRatio = float64(total.ActiveSlots) / total.LPValue
	}
	total.Stats = rec.Snapshot()
	return out, total, nil
}

// startStage starts the metrics timer and a trace child span for one
// pipeline stage; calling the returned stop ends both. The span is
// also returned so sub-solver spans can nest under it.
func startStage(rec *metrics.Recorder, parent *trace.Span, st metrics.Stage) (*trace.Span, func()) {
	stop := rec.StartStage(st)
	sp := parent.StartChild(st.String())
	return sp, func() { sp.End(); stop() }
}

// solveComponent runs the pipeline on one connected component,
// reporting per-stage wall time and operation counts to rec (which
// may be shared with other components solving concurrently) and
// per-stage spans under the component's forest span fsp. ctx is
// checked between stages (and inside the LP and flow sub-solvers), so
// cancellation interrupts a long component solve mid-pipeline.
func solveComponent(ctx context.Context, in *instance.Instance, opts Options, rec *metrics.Recorder, fsp *trace.Span) (*sched.Schedule, Report, error) {
	rec = metrics.OrNop(rec)

	_, stop := startStage(rec, fsp, metrics.StageTreeBuild)
	tree, err := lamtree.Build(in)
	stop()
	if err != nil {
		return nil, Report{}, err
	}
	_, stop = startStage(rec, fsp, metrics.StageCanonicalize)
	err = tree.Canonicalize()
	stop()
	if err != nil {
		return nil, Report{}, err
	}
	if err := ctx.Err(); err != nil {
		return nil, Report{}, err
	}

	// Feasibility gate: everything open must work. The node network is
	// built once here and reused by every later probe on this tree —
	// the post-rounding check, the repair loop (warm-started), the
	// minimalization sweep and the final placement — so each probe
	// re-primes capacities instead of rebuilding the graph.
	_, stop = startStage(rec, fsp, metrics.StageFeasGate)
	full := make([]int64, tree.M())
	for i := range full {
		full[i] = tree.Nodes[i].L
	}
	net := flowfeas.NewNodeNet(tree)
	ok, err := net.Check(ctx, full, rec)
	stop()
	if err != nil {
		return nil, Report{}, err
	}
	if !ok {
		return nil, Report{}, fmt.Errorf("infeasible instance")
	}

	_, stop = startStage(rec, fsp, metrics.StageLPBuild)
	model := nestlp.NewModel(tree)
	model.SetRecorder(rec)
	stop()
	if err := ctx.Err(); err != nil {
		return nil, Report{}, err
	}

	lpSpan, stop := startStage(rec, fsp, metrics.StageLPSolve)
	model.SetTraceSpan(lpSpan)
	model.SetContext(ctx)
	var sol *nestlp.Solution
	if opts.ExactLP {
		sol, err = model.SolveExact()
	} else {
		sol, err = model.Solve()
	}
	stop()
	if err != nil {
		return nil, Report{}, err
	}
	if err := ctx.Err(); err != nil {
		return nil, Report{}, err
	}
	lpValue := sol.Objective

	_, stop = startStage(rec, fsp, metrics.StageTransform)
	model.Transform(sol)
	I := model.TopmostPositive(sol)
	stop()

	_, stop = startStage(rec, fsp, metrics.StageRound)
	counts := Round(tree, sol, I)
	stop()
	if err := ctx.Err(); err != nil {
		return nil, Report{}, err
	}

	rep := Report{LPValue: lpValue}
	for _, c := range counts {
		rep.RoundedSlots += c
	}

	// Theorem 4.5 guarantees feasibility; verify and repair if
	// floating-point noise ever broke it.
	_, stop = startStage(rec, fsp, metrics.StageFeasCheck)
	ok, err = net.Check(ctx, counts, rec)
	stop()
	if err != nil {
		return nil, Report{}, err
	}
	if !ok {
		_, stop = startStage(rec, fsp, metrics.StageRepair)
		added, ok, err := repair(ctx, tree, net, counts, rec)
		stop()
		if err != nil {
			return nil, Report{}, err
		}
		if !ok {
			return nil, Report{}, fmt.Errorf("internal: repair failed")
		}
		rep.Repairs = added
		rep.RoundedSlots += added
	}

	if opts.Minimalize {
		_, stop = startStage(rec, fsp, metrics.StageMinimalize)
		removed, err := minimalizeCountsNet(ctx, tree, net, counts, rec)
		stop()
		if err != nil {
			return nil, Report{}, err
		}
		rep.Minimalized = removed
		rep.RoundedSlots -= removed
	}
	if err := ctx.Err(); err != nil {
		return nil, Report{}, err
	}

	_, stop = startStage(rec, fsp, metrics.StagePlace)
	var s *sched.Schedule
	if opts.Compact {
		_, s, err = PlaceCompact(tree, counts)
	} else {
		s, err = net.Schedule(ctx, counts, rec)
	}
	stop()
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, Report{}, cerr
		}
		return nil, Report{}, fmt.Errorf("internal: %w", err)
	}
	rep.ActiveSlots = s.NumActive()
	if lpValue > 0 {
		rep.CertifiedRatio = float64(rep.ActiveSlots) / lpValue
	}
	return s, rep, nil
}

// Round is Algorithm 1. Given the transformed LP solution and the
// topmost positive set I, it floors x on I, keeps x elsewhere (where
// it is integral: 0 above I, L below), and then walks Anc(I) bottom to
// top, rounding nodes up while the subtree's 9/5 budget allows.
func Round(t *lamtree.Tree, sol *nestlp.Solution, I []int) []int64 {
	m := t.M()
	xt := make([]float64, m)
	inI := make([]bool, m)
	for _, i := range I {
		inI[i] = true
	}
	for i := 0; i < m; i++ {
		if inI[i] {
			xt[i] = math.Floor(sol.X[i] + roundEps)
		} else {
			xt[i] = sol.X[i]
		}
	}

	anc := ancestorsOf(t, I)
	// Bottom to top: decreasing depth, ties broken by ID for
	// determinism.
	sort.Slice(anc, func(a, b int) bool {
		da, db := t.Nodes[anc[a]].Depth, t.Nodes[anc[b]].Depth
		if da != db {
			return da > db
		}
		return anc[a] < anc[b]
	})

	for _, i := range anc {
		des := t.Des(i)
		var xSum, xtSum float64
		for _, d := range des {
			xSum += sol.X[d]
			xtSum += xt[d]
		}
		for 9*xSum/5 >= xtSum+1-roundEps {
			// Find a descendant still below its fractional value.
			picked := -1
			for _, d := range des {
				if xt[d] < sol.X[d]-roundEps {
					picked = d
					break
				}
			}
			if picked < 0 {
				break
			}
			up := math.Ceil(sol.X[picked] - roundEps)
			xtSum += up - xt[picked]
			xt[picked] = up
		}
	}

	counts := make([]int64, m)
	for i := 0; i < m; i++ {
		c := int64(math.Round(xt[i]))
		if math.Abs(xt[i]-float64(c)) > 1e-6 {
			panic(fmt.Sprintf("core: x̃(%d)=%g not integral", i, xt[i]))
		}
		if c < 0 {
			c = 0
		}
		if c > t.Nodes[i].L {
			c = t.Nodes[i].L
		}
		counts[i] = c
	}
	return counts
}

const roundEps = 1e-9

// ancestorsOf returns Anc(I): every node that is an I-node or a
// (strict) ancestor of one, deduplicated.
func ancestorsOf(t *lamtree.Tree, I []int) []int {
	seen := make([]bool, t.M())
	var out []int
	for _, i := range I {
		for u := i; u >= 0; u = t.Nodes[u].Parent {
			if seen[u] {
				break
			}
			seen[u] = true
			out = append(out, u)
		}
	}
	return out
}

// repair opens additional slots until the count vector becomes
// feasible, checking ctx once per flow re-check. It exists purely as a
// numeric safety net; the paper's Theorem 4.5 makes it unreachable
// with an exact LP solution. Counts only ever grow here, so each
// re-check warm-starts the node network from the previous probe's
// flow instead of recomputing it.
func repair(ctx context.Context, t *lamtree.Tree, net *flowfeas.NodeNet, counts []int64, rec *metrics.Recorder) (added int64, ok bool, err error) {
	for {
		feasible, err := net.CheckWarm(ctx, counts, rec)
		if err != nil {
			return added, false, err
		}
		if feasible {
			return added, true, nil
		}
		progressed := false
		for i := 0; i < t.M(); i++ {
			if counts[i] < t.Nodes[i].L {
				counts[i]++
				added++
				progressed = true
				break
			}
		}
		if !progressed {
			return added, false, nil
		}
	}
}
