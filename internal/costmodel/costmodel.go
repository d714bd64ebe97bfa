// Package costmodel profiles an instance before it is solved and
// bounds what the solve will cost from that profile alone.
//
// A Profile is one pass over the instance: its family (unit, laminar
// or general windows), job count, nesting depth, slot universe and
// total work Σp. From it the package derives
//
//   - PredictNS, the one latency prediction: a constant times Σp + n.
//     The /jobs shortest-job-first queue orders by it and wide events
//     carry it as predicted_cost_ns. Its constant scales every
//     prediction alike, so the queue order never depends on it.
//   - SolveBytes, the allocation estimate the server's -max-solve-mem
//     gate compares with its cap, for every algorithm.
//   - EstimateLP and EstimateComponent, the strengthened LP's tableau
//     footprint (Cao et al., arXiv 2207.12507), from the window
//     structure alone without building the laminar tree. The
//     certificate-first solve charges each gapped component's estimate
//     against LPBudgetBytes, and the memory gate reads it for nested95,
//     to keep depth-squared pair constraints from turning into a
//     depth-to-the-fourth dense tableau in memory.
package costmodel

import (
	"cmp"
	"slices"

	"repro/internal/instance"
)

// Families a Profile distinguishes.
const (
	FamilyLaminar = "laminar"
	FamilyUnit    = "unit"
	FamilyGeneral = "general"
)

// nsPerWorkUnit converts Σp + n into nanoseconds: the median
// measured_ns / (Σp + n) over the benchmark's cold-mix fresh solves
// (EXPERIMENTS.md E30). It scales every prediction by the same factor,
// so the order PredictNS induces never depends on it.
const nsPerWorkUnit = 540

// Model has no fields: the one prediction is Profile.PredictNS. The
// type and Default stay only because the benchmark harness (bench/e2e)
// calls activetime.Route(in, costmodel.Default(), RouteLimits{}).
type Model struct{}

// Default returns the empty Model.
func Default() *Model { return &Model{} }

// Profile is an instance's shape as the auto router, the memory gate
// and the prediction see it: family, job count, nesting depth, slot
// universe, total work and, computed on first use, the LP size
// estimate. A request profiles its instance once and hands the profile
// to routing, the memory gate, prediction and telemetry. A Profile is
// not safe for concurrent use.
type Profile struct {
	Family string
	Jobs   int
	Depth  int
	// Slots is the slot universe: the length of the union of windows.
	Slots int64
	// Units is Σ p_j, saturating at MaxInt64: every schedule holds
	// exactly this many job units.
	Units int64

	in *instance.Instance
	lp *LPEstimate
}

// NewProfile profiles in: one laminarity check, one endpoint sweep and
// one pass over the processing times.
func NewProfile(in *instance.Instance) *Profile {
	p := &Profile{Family: FamilyFor(in), Jobs: in.N(), in: in}
	p.Depth, p.Slots = sweep(in)
	for _, j := range in.Jobs {
		p.Units = satAdd(p.Units, j.Processing)
	}
	return p
}

// LP returns EstimateLP of the profiled instance, computed on the first
// call: only LP-bound solves need it.
func (p *Profile) LP() LPEstimate {
	if p.lp == nil {
		e := EstimateLP(p.in)
		p.lp = &e
	}
	return *p.lp
}

// PredictNS predicts the solve's latency in nanoseconds as
// nsPerWorkUnit·(Units + Jobs), saturating at MaxInt64 and at least 1.
// It never falls as Σp or n grows.
func (p *Profile) PredictNS() int64 {
	return max(satMul(satAdd(p.Units, int64(p.Jobs)), nsPerWorkUnit), 1)
}

// FamilyFor maps an instance onto a profile family: nested windows
// with unit processing times are "unit", other nested instances
// "laminar", everything else "general".
func FamilyFor(in *instance.Instance) string {
	if !in.Nested() {
		return FamilyGeneral
	}
	for _, j := range in.Jobs {
		if j.Processing != 1 {
			return FamilyLaminar
		}
	}
	return FamilyUnit
}

// Depth returns the maximum number of job windows covering any single
// time point — for laminar (nested) instances this is exactly the
// nesting depth of the laminar forest; for general instances it is the
// peak window overlap, which plays the same role as a difficulty
// feature. Computed by an O(n log n) endpoint sweep.
func Depth(in *instance.Instance) int {
	depth, _ := sweep(in)
	return depth
}

// sweep runs the endpoint sweep behind Depth and also measures the
// slot universe: the number of slots inside at least one window.
func sweep(in *instance.Instance) (depth int, slots int64) {
	n := in.N()
	if n == 0 {
		return 1, 0
	}
	type event struct {
		t     int64
		delta int
	}
	events := make([]event, 0, 2*n)
	for _, j := range in.Jobs {
		events = append(events, event{j.Release, +1}, event{j.Deadline, -1})
	}
	slices.SortFunc(events, func(a, b event) int {
		if a.t != b.t {
			return cmp.Compare(a.t, b.t)
		}
		// Close before open at the same point: windows are half-open
		// [r, d), so [0,3) and [3,5) do not overlap.
		return a.delta - b.delta
	})
	cur := 0
	for i, e := range events {
		if cur > 0 {
			slots += e.t - events[i-1].t
		}
		cur += e.delta
		if cur > depth {
			depth = cur
		}
	}
	if depth < 1 {
		depth = 1
	}
	return depth, slots
}
