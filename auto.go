package activetime

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/comb"
	"repro/internal/costmodel"
	"repro/internal/metrics"
)

// RouteLimits has no fields: AlgAuto routes on window shape alone, and
// the LP's cost is bounded per solve by costmodel.LPBudgetBytes where
// the certificate-first solve runs it. The type stays only because
// Route takes it and the benchmark harness (bench/e2e) calls
// Route(in, costmodel.Default(), RouteLimits{}).
type RouteLimits struct{}

// Routing reasons reported in RouteDecision.Reason (and surfaced as
// route_reason on the server's wide events).
const (
	RouteReasonGeneralWindows   = "general_windows"
	RouteReasonCertificateFirst = "certificate_first"
	// RouteReasonSmallNestedLP is not returned by RouteProfile: the
	// server uses it for an auto request that would have gone
	// certificate-first but sets an option only the LP pipeline
	// honors (exact LP, minimalize, compact), so it runs nested95.
	RouteReasonSmallNestedLP = "small_nested_lp"
)

// RouteDecision is the outcome of Route: the concrete algorithm
// chosen for an AlgAuto solve and the evidence behind the choice.
type RouteDecision struct {
	// Algorithm is the concrete solver chosen, or AlgAuto for the
	// certificate-first solve (SolveCertificateFirstCtx), whose result
	// names the solver that produced its schedule.
	Algorithm Algorithm
	// Reason is one of the RouteReason constants.
	Reason string
}

// Route is RouteProfile over a fresh profile of in; it ignores the
// model and the limits, both empty.
func Route(in *Instance, _ *costmodel.Model, _ RouteLimits) RouteDecision {
	return RouteProfile(costmodel.NewProfile(in))
}

// RouteProfile decides which solver an AlgAuto request should run,
// from the window shape alone: non-nested windows go to the greedy
// 3-approximation (the only general-windows algorithm with a
// guarantee), and nested instances go certificate-first (comb, then
// the 9/5 LP pipeline on the components comb does not certify, within
// costmodel.LPBudgetBytes).
func RouteProfile(p *costmodel.Profile) RouteDecision {
	if p.Family == costmodel.FamilyGeneral {
		return RouteDecision{Algorithm: AlgGreedyMinimal, Reason: RouteReasonGeneralWindows}
	}
	return RouteDecision{Algorithm: AlgAuto, Reason: RouteReasonCertificateFirst}
}

// SolveCertificateFirstCtx is AlgAuto's solve for nested instances. It
// runs the combinatorial solver once over the whole instance and checks
// each forest component against the laminar-tree lower bound. Where comb
// meets the bound its schedule is optimal and the LP could only tie it.
// Every other component is solved again by the 9/5 pipeline on its own,
// in time order, while its costmodel.EstimateComponent tableau fits in
// what is left of costmodel.LPBudgetBytes, and the better of the two
// schedules is kept. A component over the remaining budget keeps
// comb's schedule (at most 2·OPT). Result.LowerBound sums, per
// component, the tree bound, raised to the rounded-up LP value where
// the LP ran (the LP is a relaxation). Result.Algorithm names
// AlgNested95 when the LP replaced at least one component,
// AlgCombinatorial otherwise. Options other than Workers, Metrics and
// Trace are ignored.
func SolveCertificateFirstCtx(ctx context.Context, in *Instance, opts SolveOptions) (*Result, error) {
	return solveCertificateFirst(ctx, in, opts, costmodel.LPBudgetBytes)
}

// solveCertificateFirst is SolveCertificateFirstCtx with the LP budget
// in bytes as a parameter.
func solveCertificateFirst(ctx context.Context, in *Instance, opts SolveOptions, budget int64) (*Result, error) {
	rec := opts.Metrics
	if rec == nil {
		rec = new(metrics.Recorder)
	}
	s, rep, err := comb.SolveContext(ctx, in, comb.Options{Metrics: rec, Trace: opts.Trace})
	if err != nil {
		return nil, fmt.Errorf("activetime: %w", err)
	}
	res := &Result{Algorithm: AlgCombinatorial, Schedule: s, ActiveSlots: rep.ActiveSlots}
	type lpWin struct {
		root int
		s    *Schedule
	}
	var comps []*Instance
	var backmap [][]int
	var kept []lpWin // components whose LP schedule beat comb's, in time order
	for i, r := range rep.Roots {
		bound := r.Bound
		if r.Active != r.Bound {
			if comps == nil {
				comps, backmap = in.Components()
				if len(comps) != len(rep.Roots) {
					return nil, fmt.Errorf("activetime: internal: %d components but %d forest roots",
						len(comps), len(rep.Roots))
				}
			}
			if est := costmodel.EstimateComponent(comps[i]).TableauBytes; est <= budget {
				budget -= est
				lp, err := SolveNested95Ctx(ctx, comps[i], SolveOptions{Workers: opts.Workers, Metrics: rec, Trace: opts.Trace})
				if err != nil {
					return nil, err
				}
				bound = max(bound, int64(math.Ceil(lp.LPLowerBound-1e-6)))
				if lp.ActiveSlots < r.Active {
					kept = append(kept, lpWin{i, lp.Schedule})
				}
			}
		}
		res.LowerBound += bound
	}
	if len(kept) > 0 {
		// Drop comb's slots under the replaced roots (disjoint windows in
		// time order), then splice in the LP schedules through the
		// component backmap.
		for t := range s.Slots {
			k := sort.Search(len(kept), func(k int) bool { return rep.Roots[kept[k].root].Window.End > t })
			if k < len(kept) && rep.Roots[kept[k].root].Window.Contains(t) {
				delete(s.Slots, t)
			}
		}
		for _, w := range kept {
			for t, js := range w.s.Slots {
				for _, localID := range js {
					s.Assign(t, backmap[w.root][localID])
				}
			}
		}
		stop := rec.StartStage(metrics.StageValidate)
		err := s.Validate(in)
		stop()
		if err != nil {
			return nil, fmt.Errorf("activetime: internal: certificate-first schedule invalid: %w", err)
		}
		res.Algorithm = AlgNested95
		res.ActiveSlots = s.NumActive()
	}
	res.Stats = rec.Snapshot()
	return res, nil
}

// SolveCombinatorial runs the lazy-activation solver with explicit
// options (Metrics and Trace are honored; the LP-specific options are
// ignored).
func SolveCombinatorial(in *Instance, opts SolveOptions) (*Result, error) {
	return SolveCombinatorialCtx(context.Background(), in, opts)
}

// SolveCombinatorialCtx is SolveCombinatorial with cooperative
// cancellation (checked per batch of jobs placed).
func SolveCombinatorialCtx(ctx context.Context, in *Instance, opts SolveOptions) (*Result, error) {
	s, rep, err := comb.SolveContext(ctx, in, comb.Options{
		Metrics:     opts.Metrics,
		Trace:       opts.Trace,
		CaptureWarm: opts.CaptureWarm,
	})
	if err != nil {
		return nil, fmt.Errorf("activetime: %w", err)
	}
	return &Result{
		Algorithm:   AlgCombinatorial,
		Schedule:    s,
		ActiveSlots: rep.ActiveSlots,
		Stats:       rep.Stats,
		Warm:        warmStateFor(in, rep),
	}, nil
}
