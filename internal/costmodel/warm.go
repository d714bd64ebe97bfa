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
// replays the new jobs, so it keeps a larger share of the cold cost.
// Unknown kinds (including "") predict at full cold cost. The factors
// assume larger savings than the combinatorial resumes deliver, 1.8–3.6×
// in the delta benchmark families (EXPERIMENTS.md E28).
func WarmFactor(kind string) float64 {
	switch kind {
	case WarmKindRaiseG:
		return 0.125
	case WarmKindSuperset:
		return 0.25
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
