package activetime

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/comb"
	"repro/internal/costmodel"
	"repro/internal/metrics"
)

// RouteLimits bounds what AlgAuto is willing to hand the LP pipeline.
// An instance that exceeds any limit is routed to AlgCombinatorial
// instead; the zero value of any field means "use the default".
type RouteLimits struct {
	// MaxLPJobs caps the job count for the LP path.
	MaxLPJobs int
	// MaxLPDepth caps the nesting depth for the LP path. The LP has a
	// y-variable and a coupling row per (window, contained job) pair,
	// so a chain of depth d costs Θ(d²) pairs and a Θ(d⁴) dense
	// tableau.
	MaxLPDepth int
	// MaxLPTableauBytes caps the estimated dense-tableau footprint
	// (costmodel.EstimateLP) for the LP path.
	MaxLPTableauBytes int64
	// MaxLPPredictedNS caps the cost model's latency prediction for
	// the LP path.
	MaxLPPredictedNS int64
}

// DefaultRouteLimits returns the production routing thresholds: the
// LP path is reserved for instances where its 9/5 certificate is
// affordable — at most 4096 jobs, nesting depth at most 64, an
// estimated tableau under 64 MiB and a predicted solve under 500ms.
func DefaultRouteLimits() RouteLimits {
	return RouteLimits{
		MaxLPJobs:         4096,
		MaxLPDepth:        64,
		MaxLPTableauBytes: 64 << 20,
		MaxLPPredictedNS:  500e6,
	}
}

func (l RouteLimits) withDefaults() RouteLimits {
	d := DefaultRouteLimits()
	if l.MaxLPJobs <= 0 {
		l.MaxLPJobs = d.MaxLPJobs
	}
	if l.MaxLPDepth <= 0 {
		l.MaxLPDepth = d.MaxLPDepth
	}
	if l.MaxLPTableauBytes <= 0 {
		l.MaxLPTableauBytes = d.MaxLPTableauBytes
	}
	if l.MaxLPPredictedNS <= 0 {
		l.MaxLPPredictedNS = d.MaxLPPredictedNS
	}
	return l
}

// Routing reasons reported in RouteDecision.Reason (and surfaced as
// route_reason on the server's wide events).
const (
	RouteReasonGeneralWindows      = "general_windows"
	RouteReasonJobsOverLPCap       = "jobs_over_lp_cap"
	RouteReasonDepthOverLPCap      = "depth_over_lp_cap"
	RouteReasonLPTableauOverMemCap = "lp_tableau_over_mem_cap"
	RouteReasonLPPredictedSlow     = "lp_predicted_slow"
	RouteReasonCertificateFirst    = "certificate_first"
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
	// Jobs and Depth are the instance features the decision used.
	Jobs  int
	Depth int
	// PredictedNS is the cost model's latency prediction for the
	// chosen algorithm.
	PredictedNS int64
	// LPTableauBytes is the estimated dense-tableau footprint the LP
	// path would have needed (0 when the instance is not nested and
	// the estimate was never consulted).
	LPTableauBytes int64
}

// Route is RouteProfile over a fresh profile of in.
func Route(in *Instance, m *costmodel.Model, lim RouteLimits) RouteDecision {
	return RouteProfile(costmodel.NewProfile(in), m, lim)
}

// RouteProfile decides which solver an AlgAuto request should run,
// from the instance profile and the cost model: non-nested windows go
// to the greedy 3-approximation (the only general-windows algorithm
// with a guarantee), nested instances go certificate-first (comb, then
// the 9/5 LP pipeline on the components comb does not certify) while
// the LP is affordable under the limits, and everything else — deep
// chains, huge forests — goes to the combinatorial solver alone. A nil
// model uses the embedded default; zero-valued limits use
// DefaultRouteLimits. It reads the profile's LP estimate only for
// nested instances within the job and depth caps.
func RouteProfile(p *costmodel.Profile, m *costmodel.Model, lim RouteLimits) RouteDecision {
	if m == nil {
		m = costmodel.Default()
	}
	lim = lim.withDefaults()
	dec := RouteDecision{Jobs: p.Jobs, Depth: p.Depth}
	finish := func(alg Algorithm, reason string) RouteDecision {
		dec.Algorithm = alg
		dec.Reason = reason
		dec.PredictedNS = m.PredictAlgNS(p.Family, string(alg), p.Jobs, p.Depth)
		return dec
	}
	if p.Family == costmodel.FamilyGeneral {
		return finish(AlgGreedyMinimal, RouteReasonGeneralWindows)
	}
	if p.Jobs > lim.MaxLPJobs {
		return finish(AlgCombinatorial, RouteReasonJobsOverLPCap)
	}
	if p.Depth > lim.MaxLPDepth {
		return finish(AlgCombinatorial, RouteReasonDepthOverLPCap)
	}
	dec.LPTableauBytes = p.LP().TableauBytes
	if dec.LPTableauBytes > lim.MaxLPTableauBytes {
		return finish(AlgCombinatorial, RouteReasonLPTableauOverMemCap)
	}
	if m.PredictAlgNS(p.Family, string(AlgNested95), p.Jobs, p.Depth) > lim.MaxLPPredictedNS {
		return finish(AlgCombinatorial, RouteReasonLPPredictedSlow)
	}
	return finish(AlgAuto, RouteReasonCertificateFirst)
}

// SolveCertificateFirstCtx is AlgAuto's solve for nested instances the
// LP pipeline can afford. It runs the combinatorial solver once over
// the whole instance and checks each forest component against the
// laminar-tree lower bound. Where comb meets the bound its schedule is
// optimal and the LP could only tie it. Every other component is
// solved again by the 9/5 pipeline on its own, and the better of the
// two schedules is kept. Result.LowerBound is the summed bound, and
// Result.Algorithm names AlgNested95 when the LP replaced at least one
// component, AlgCombinatorial otherwise. Options other than Workers,
// Metrics and Trace are ignored.
func SolveCertificateFirstCtx(ctx context.Context, in *Instance, opts SolveOptions) (*Result, error) {
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
		res.LowerBound += r.Bound
		if r.Active == r.Bound {
			continue
		}
		if comps == nil {
			comps, backmap = in.Components()
			if len(comps) != len(rep.Roots) {
				return nil, fmt.Errorf("activetime: internal: %d components but %d forest roots",
					len(comps), len(rep.Roots))
			}
		}
		lp, err := SolveNested95Ctx(ctx, comps[i], SolveOptions{Workers: opts.Workers, Metrics: rec, Trace: opts.Trace})
		if err != nil {
			return nil, err
		}
		if lp.ActiveSlots < r.Active {
			kept = append(kept, lpWin{i, lp.Schedule})
		}
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
