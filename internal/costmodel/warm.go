package costmodel

// Warm-start delta kinds the model distinguishes. They mirror the
// root package's WarmKind values; the strings are duplicated here to
// keep costmodel free of a dependency on the root package.
const (
	WarmKindRaiseG   = "raise_g"
	WarmKindSuperset = "superset"
)

// WarmFactor returns the multiplicative discount a warm start of the
// given kind earns over the cold prediction. A raised-g resume skips
// placement and only re-minimalizes; a superset resume additionally
// places the new jobs, so it keeps a larger share of the cold cost.
// Unknown kinds (including "") predict at full cold cost. The factors
// are the combinatorial resumes' measured warm/cold time ratios, the
// median over three runs of `atbench` (ns_per_op / cold_ns_per_op):
// 0.27–0.31 on delta-raise-g-100k, and 0.26–0.56 over the two grow
// families (EXPERIMENTS.md E29).
func WarmFactor(kind string) float64 {
	switch kind {
	case WarmKindRaiseG:
		return 0.29
	case WarmKindSuperset:
		return 0.36
	}
	return 1
}

// PredictWarmNS predicts the cost of a warm solve: the cold
// per-algorithm prediction scaled by the kind's warm factor, floored
// at 1ns. The scaling preserves monotonicity in jobs and depth, so
// warm predictions remain safe inputs for shortest-predicted-first
// scheduling.
func (m *Model) PredictWarmNS(family, algorithm, kind string, jobs, depth int) int64 {
	cold := m.PredictAlgNS(family, algorithm, jobs, depth)
	ns := int64(float64(cold) * WarmFactor(kind))
	if ns < 1 {
		ns = 1
	}
	return ns
}
