package costmodel

import "math"

// Allocation constants behind SolveBytes: bytes allocated
// (runtime.MemStats.TotalAlloc) per unit of the matching size, fitted
// on single-job instances at d = 10⁶ and p = 10⁶ (amd64, Go 1.24).
// TestSolveBytesTracksAllocation in the root package pins them to
// within 2× of a measured solve.
const (
	// unitBytes: one scheduled unit — its share of the result
	// schedule's slot map and job slices (~176), plus the per-unit
	// structures that build it: the final slot network of the greedy
	// orders (~208 per open slot, and a minimal open set has at most Σp
	// slots), nested95's placement, exact's count-vector schedule.
	unitBytes = 380
	// combUnitBytes: one unit placed by comb (130 measured at
	// p = 5·10⁵ and 10⁶): its slot and job list entries, and its share
	// of the schedule, which comb builds with one map entry per active
	// slot and one job array for the whole schedule.
	combUnitBytes = 130
	// combSlotBytes: comb's per-slot arrays over the slot universe
	// (load, slot job lists, the DSU and the predecessor bitsets).
	combSlotBytes = 36
	// allOpenSlotBytes: one candidate slot of all-open (the slot map,
	// the sorted slot list, its network node and edges).
	allOpenSlotBytes = 290
	// exactSlackBytes: one slot of exact's general (non-nested) search,
	// which decides slots one at a time with a max flow each; a floor,
	// not a fit, as those flows grow with the slot count too. The nested
	// search pays nothing per slot: it binary-searches each laminar
	// node's count.
	exactSlackBytes = 700
)

// SolveBytes estimates the bytes algorithm alg allocates solving the
// profiled instance. Every algorithm pays per unit of Σp (comb and
// certificate-first auto at comb's lower rate). On top of that:
//   - "comb", and "auto" on the certificate-first route: comb's
//     per-slot arrays over the slot universe ("auto" adds the LP
//     tableaus it may build for the components comb leaves
//     uncertified: LPBudgetBytes, or less when the job count caps
//     every component's tableau lower);
//   - "nested95": the LP tableau floor of EstimateLP;
//   - "all-open": its structures over every candidate slot;
//   - "exact" on general windows: one search step per slot of slack.
//
// The greedy orders pay nothing per slot: their scan works on
// breakpoint runs. The estimate saturates at MaxInt64. It is the figure
// the server's -max-solve-mem gate compares with its cap; it tracks
// instances with few overlapping windows closely and undercounts
// per-(job, slot) edges where many windows overlap.
func (p *Profile) SolveBytes(alg string) int64 {
	perUnit := int64(unitBytes)
	if alg == "auto" || alg == "comb" {
		perUnit = combUnitBytes
	}
	b := satMul(p.Units, perUnit)
	switch alg {
	case "auto":
		b = satAdd(b, satMul(p.Slots, combSlotBytes))
		b = satAdd(b, min(LPBudgetBytes, lpCeilingBytes(int64(p.Jobs))))
	case "comb":
		b = satAdd(b, satMul(p.Slots, combSlotBytes))
	case "nested95":
		b = satAdd(b, p.LP().TableauBytes)
	case "all-open":
		b = satAdd(b, satMul(p.Slots, allOpenSlotBytes))
	case "exact":
		if p.Family == FamilyGeneral {
			b = satAdd(b, satMul(max(p.Slots-p.Units, 0), exactSlackBytes))
		}
	}
	return b
}

// satAdd returns a+b for non-negative operands, saturating at MaxInt64.
func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// satMul returns a·k for a ≥ 0 and k > 0, saturating at MaxInt64.
func satMul(a, k int64) int64 {
	if a > math.MaxInt64/k {
		return math.MaxInt64
	}
	return a * k
}
