package activetime

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/comb"
	"repro/internal/instance"
)

// WarmKind classifies a near-miss delta between a cached base solve
// and a new request.
type WarmKind string

const (
	// WarmNone: the delta is not warmable; solve cold.
	WarmNone WarmKind = ""
	// WarmRaiseG: same canonical job multiset, strictly larger g.
	// Capacities only grow, so the cached solution stays feasible and
	// warm solving reduces to re-minimalizing it under the new slack.
	WarmRaiseG WarmKind = "raise_g"
	// WarmSuperset: same g, the base jobs plus new jobs whose windows
	// nest inside the cached laminar forest. Only the new jobs are
	// replayed.
	WarmSuperset WarmKind = "superset"
)

// Delta is ClassifyDelta's result: the warmable relation (if any)
// between a cached base instance and a new request, with the index
// translation a resume needs.
type Delta struct {
	Kind WarmKind
	// Mapping[baseIdx] is the job's index in the delta instance
	// (superset only; raise-g deltas map positionally).
	Mapping []int32
	// NewJobs lists delta-instance indices of jobs absent from the
	// base (superset only).
	NewJobs []int
}

// ErrWarmMismatch reports that retained warm state cannot be resumed
// for a delta (unclassified, or not fitting the instance); callers
// solve cold and drop the state.
var ErrWarmMismatch = errors.New("activetime: warm state mismatch")

// WarmState is retained solver state from a finished combinatorial
// solve, stored on cache entries so near-miss requests can resume
// instead of solving cold. It is immutable after capture: resumes
// deep-copy the mutable parts, so one state can warm any number of
// concurrent requests.
type WarmState struct {
	// Base is the canonical instance the state was solved for; deltas
	// are classified against it.
	Base *Instance
	// ActiveSlots is the base solve's objective. It is also the
	// monotone acceptance bound: a raised-g resume must achieve at most
	// ActiveSlots, a superset resume at most ActiveSlots plus the new
	// jobs' total processing, because resumes start from exactly the
	// base placement and only ever close slots beyond it. A violation
	// means corrupted state, not a hard instance.
	ActiveSlots int64

	cb *comb.WarmState
}

// SizeBytes estimates the retained heap footprint, used for the solve
// cache's warm-byte accounting.
func (w *WarmState) SizeBytes() int64 {
	if w == nil {
		return 0
	}
	return int64(96) + int64(w.Base.N())*32 + w.cb.SizeBytes()
}

// jobLess is the canonical (release, deadline, processing) order used
// by the solve cache.
func jobLess(a, b Job) bool {
	if a.Release != b.Release {
		return a.Release < b.Release
	}
	if a.Deadline != b.Deadline {
		return a.Deadline < b.Deadline
	}
	return a.Processing < b.Processing
}

func jobEq(a, b Job) bool {
	return a.Release == b.Release && a.Deadline == b.Deadline && a.Processing == b.Processing
}

// ClassifyDelta relates a new request to a cached base instance.
// Both instances are expected in canonical job order (the cache
// canonicalizes before solving); under that premise a raised-g delta
// has positionally identical jobs, and a superset delta interleaves
// new jobs into the same sorted sequence, recoverable by one merge
// walk. Anything else — removed jobs, changed windows, lowered g,
// non-nested growth — classifies as WarmNone (solve cold).
func ClassifyDelta(base, delta *Instance) Delta {
	if base == nil || delta == nil {
		return Delta{}
	}
	if delta.G > base.G && delta.N() == base.N() {
		for i := range base.Jobs {
			if !jobEq(base.Jobs[i], delta.Jobs[i]) {
				return Delta{}
			}
		}
		return Delta{Kind: WarmRaiseG}
	}
	if delta.G == base.G && delta.N() > base.N() && delta.Nested() {
		mapping := make([]int32, base.N())
		newJobs := make([]int, 0, delta.N()-base.N())
		bi, di := 0, 0
		for bi < base.N() && di < delta.N() {
			switch {
			case jobEq(base.Jobs[bi], delta.Jobs[di]):
				mapping[bi] = int32(di)
				bi++
				di++
			case jobLess(delta.Jobs[di], base.Jobs[bi]):
				newJobs = append(newJobs, di)
				di++
			default:
				// A base job is missing from the delta.
				return Delta{}
			}
		}
		if bi < base.N() {
			return Delta{}
		}
		for ; di < delta.N(); di++ {
			newJobs = append(newJobs, di)
		}
		return Delta{Kind: WarmSuperset, Mapping: mapping, NewJobs: newJobs}
	}
	return Delta{}
}

// warmErr maps comb's mismatch sentinel onto the root one so callers
// can errors.Is against ErrWarmMismatch alone.
func warmErr(err error) error {
	if errors.Is(err, comb.ErrWarmMismatch) {
		return fmt.Errorf("%w: %v", ErrWarmMismatch, err)
	}
	return err
}

// SolveWarmCtx resumes retained combinatorial state for a classified
// near-miss delta instead of solving cold: comb.ResumeRaiseG for a
// raised g, comb.ResumeSuperset for nested job growth. The resumed
// schedule is validated in full and checked against the monotone bound
// recorded at capture time (see WarmState.ActiveSlots); any failure
// returns an error and the caller falls back to a cold solve.
func SolveWarmCtx(ctx context.Context, in *Instance, w *WarmState, d Delta, opts SolveOptions) (*Result, error) {
	if w == nil || w.cb == nil {
		return nil, fmt.Errorf("%w: no retained state", ErrWarmMismatch)
	}
	bound := w.ActiveSlots
	copts := comb.Options{
		Metrics:     opts.Metrics,
		Trace:       opts.Trace,
		CaptureWarm: opts.CaptureWarm,
	}
	var (
		s   *Schedule
		rep *comb.Report
		err error
	)
	switch d.Kind {
	case WarmRaiseG:
		s, rep, err = comb.ResumeRaiseG(ctx, in, w.cb, copts)
	case WarmSuperset:
		for _, ji := range d.NewJobs {
			if ji < 0 || ji >= in.N() {
				return nil, fmt.Errorf("%w: new-job index %d out of range", ErrWarmMismatch, ji)
			}
			bound += in.Jobs[ji].Processing
		}
		s, rep, err = comb.ResumeSuperset(ctx, in, w.cb, d.Mapping, d.NewJobs, copts)
	default:
		return nil, fmt.Errorf("%w: delta kind %q", ErrWarmMismatch, d.Kind)
	}
	if err != nil {
		return nil, warmErr(err)
	}
	if rep.ActiveSlots > bound {
		// The resumes only ever deactivate beyond the retained
		// placement, so exceeding the bound means the retained state is
		// corrupt — never that the instance is hard.
		return nil, fmt.Errorf("%w: resumed objective %d exceeds monotone bound %d",
			ErrWarmMismatch, rep.ActiveSlots, bound)
	}
	return &Result{
		Algorithm:   AlgCombinatorial,
		Schedule:    s,
		ActiveSlots: rep.ActiveSlots,
		Stats:       rep.Stats,
		Warm:        warmStateFor(in, rep),
	}, nil
}

// warmStateFor assembles the public WarmState from comb's capture (nil
// when nothing was captured).
func warmStateFor(in *instance.Instance, rep *comb.Report) *WarmState {
	if rep.Warm == nil {
		return nil
	}
	return &WarmState{Base: in, ActiveSlots: rep.ActiveSlots, cb: rep.Warm}
}
