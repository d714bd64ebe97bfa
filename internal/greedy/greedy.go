// Package greedy implements the combinatorial baselines the paper
// compares against (§1, Problem History):
//
//   - MinimalFeasible: starting from all slots open, repeatedly
//     deactivate any slot whose removal keeps the instance feasible.
//     Any minimal feasible solution is a 3-approximation
//     (Chang–Khuller–Mukherjee).
//   - LazyRightToLeft: the same deactivation framework but scanning
//     slots from the latest to the earliest, re-attempting earlier
//     slots after later ones close. This mirrors the "choose slots
//     more carefully" strategy of Kumar–Khuller's greedy
//     2-approximation; like theirs, it always outputs a minimal
//     feasible solution.
//   - AllOpen: the trivial baseline that activates every candidate
//     slot.
//
// All baselines work on arbitrary (not necessarily nested) instances
// and return a concrete validated schedule.
package greedy

import (
	"context"
	"fmt"

	"repro/internal/flowfeas"
	"repro/internal/instance"
	"repro/internal/sched"
)

// Order selects the slot scan order for deactivation.
type Order int

// Deactivation orders.
const (
	// LeftToRight scans earliest slot first.
	LeftToRight Order = iota
	// RightToLeft scans latest slot first (Kumar–Khuller style).
	RightToLeft
)

// Result bundles a baseline schedule with its open-slot set.
type Result struct {
	Schedule *sched.Schedule
	Open     []int64
}

// AllOpen schedules the instance on every candidate slot.
func AllOpen(in *instance.Instance) (Result, error) {
	slots := in.SortedSlots()
	s, err := flowfeas.ScheduleOnSlots(in, slots)
	if err != nil {
		return Result{}, fmt.Errorf("greedy: instance infeasible: %w", err)
	}
	return Result{Schedule: s, Open: slots}, nil
}

// MinimalFeasible computes a minimal feasible slot set by scanning in
// the given order once and deactivating every slot whose removal
// preserves feasibility. A single pass suffices for minimality:
// feasibility is monotone in the slot set, so a slot that cannot be
// removed now can never be removed after further deactivations.
func MinimalFeasible(in *instance.Instance, order Order) (Result, error) {
	return MinimalFeasibleCtx(context.Background(), in, order)
}

// MinimalFeasibleCtx is MinimalFeasible with cooperative cancellation:
// every feasibility probe checks ctx once per Dinic phase, and the
// returned error wraps ctx.Err().
//
// The scan runs over breakpoint runs rather than single slots. The
// slots of one run lie in exactly the same job windows, so they are
// interchangeable, and feasibility is monotone in a run's open count.
// The slot-by-slot scan therefore closes a prefix of each run
// (left-to-right) or a suffix (right-to-left): once one slot of a run
// fails to close, every later slot of that run fails at the same
// count. One binary search per run over its closed count reproduces
// that scan exactly, with O(log L) flows per run of length L on a
// network of n + runs nodes instead of one flow per slot.
func MinimalFeasibleCtx(ctx context.Context, in *instance.Instance, order Order) (Result, error) {
	rn := newRunNet(in)
	ok, err := rn.feasible(ctx)
	if err != nil {
		return Result{}, err
	}
	if !ok {
		return Result{}, fmt.Errorf("greedy: instance infeasible")
	}
	closed := make([]int64, len(rn.runs))
	for i := range rn.runs {
		k := i
		if order == RightToLeft {
			k = len(rn.runs) - 1 - i
		}
		// Largest closed count that keeps the instance feasible, with
		// the runs before k in scan order decided and those after it
		// fully open. Closing none is feasible by induction. The first
		// probe closes the whole run, the common outcome where other
		// runs can absorb its work; the bisection then halves the rest.
		length := rn.runs[k].b - rn.runs[k].a
		lo, hi := int64(0), length
		for mid := hi; lo < hi; mid = hi - (hi-lo)/2 {
			rn.setOpen(k, length-mid)
			ok, err := rn.feasible(ctx)
			if err != nil {
				return Result{}, err
			}
			if ok {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		rn.setOpen(k, length-lo)
		closed[k] = lo
	}
	var total int64
	for k, r := range rn.runs {
		total += r.b - r.a - closed[k]
	}
	final := make([]int64, 0, total)
	for k, r := range rn.runs {
		a, b := r.a+closed[k], r.b
		if order == RightToLeft {
			a, b = r.a, r.b-closed[k]
		}
		for t := a; t < b; t++ {
			final = append(final, t)
		}
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	s, err := flowfeas.ScheduleOnSlots(in, final)
	if err != nil {
		return Result{}, fmt.Errorf("greedy: internal: %w", err)
	}
	return Result{Schedule: s, Open: final}, nil
}

// LazyRightToLeft is the Kumar–Khuller-flavoured baseline: minimal
// feasible deactivation scanning from the latest slot to the earliest.
// Deactivating late slots first pushes work leftward into already-paid
// slots, which is the behaviour their analysis exploits.
func LazyRightToLeft(in *instance.Instance) (Result, error) {
	return MinimalFeasible(in, RightToLeft)
}

// IsMinimal reports whether the open slot set is feasible and minimal:
// removing any single slot breaks feasibility.
func IsMinimal(in *instance.Instance, open []int64) bool {
	if !flowfeas.CheckSlots(in, open) {
		return false
	}
	for k := range open {
		reduced := make([]int64, 0, len(open)-1)
		reduced = append(reduced, open[:k]...)
		reduced = append(reduced, open[k+1:]...)
		if flowfeas.CheckSlots(in, reduced) {
			return false
		}
	}
	return true
}
