// Package costmodel predicts the execution cost of a solve before it
// runs. The model is deliberately tiny: per (instance family,
// algorithm) pair, expected nanoseconds are an affine function of one
// size feature x,
//
//	ns(family, algorithm, jobs, depth) = C0 + C1·x(jobs, depth)
//
// where the feature is jobs·depth by default, jobs·depth³ for the LP
// pipeline (whose tableau grows with the square of the nesting depth,
// so work grows roughly with its cube on deep chains), or plain jobs
// for the near-linear combinatorial solver. All coefficients are
// clamped non-negative and every feature is non-decreasing in both
// jobs and depth, which keeps predictions monotone — the property the
// metamorphic suite pins and the property that makes
// shortest-predicted-job-first a sane scheduling policy (a bigger
// instance can never be predicted cheaper within a family).
//
// Coefficients are fitted offline from the committed BENCH_core.json
// baseline by `atbench -fit`, which rebuilds the frozen benchmark
// instances, derives each family's mean jobs and depth, and solves the
// least-squares system. The fitted coefficients are committed as
// costmodel.json in this package and embedded as the default model, so
// the server needs no files at runtime; `-cost-model PATH` can point
// at a refitted file.
//
// The package also estimates the strengthened LP's tableau footprint
// (EstimateLP) from the window structure alone, without building the
// laminar tree; the auto router and the server's -max-solve-mem
// backstop use it to keep depth-squared pair constraints from turning
// into a depth-to-the-fourth dense tableau in memory.
package costmodel

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"repro/internal/instance"
)

// Schema identifies the costmodel JSON file format.
const Schema = "activetime-costmodel/v2"

// Families the model distinguishes. They mirror the loadgen workload
// families; unknown families fall back to FamilyDefault.
const (
	FamilyLaminar = "laminar"
	FamilyUnit    = "unit"
	FamilyGeneral = "general"
	// FamilyDefault is the fallback used for unknown families.
	FamilyDefault = FamilyLaminar
)

// Features an affine model can be fitted over. The empty string means
// FeatureJobsDepth.
const (
	// FeatureJobsDepth is x = jobs·depth, the default.
	FeatureJobsDepth = "jobs_depth"
	// FeatureJobsDepth3 is x = jobs·depth³, matching the LP pipeline's
	// superlinear growth on deeply nested instances.
	FeatureJobsDepth3 = "jobs_depth3"
	// FeatureJobs is x = jobs, for near-linear solvers whose cost is
	// insensitive to nesting depth.
	FeatureJobs = "jobs"
)

// featureValue evaluates a feature; every feature is non-decreasing in
// both arguments, which is what keeps predictions monotone.
func featureValue(feature string, jobs, depth float64) float64 {
	switch feature {
	case FeatureJobsDepth3:
		return jobs * depth * depth * depth
	case FeatureJobs:
		return jobs
	default: // "" and FeatureJobsDepth
		return jobs * depth
	}
}

func validFeature(f string) bool {
	switch f {
	case "", FeatureJobsDepth, FeatureJobsDepth3, FeatureJobs:
		return true
	}
	return false
}

// Coefficients is one (family, algorithm) pair's fitted model:
// ns = C0 + C1·x(jobs, depth) with the feature choosing x. Both
// coefficients are non-negative by construction (Fit clamps), so
// predictions are monotone in jobs and depth.
type Coefficients struct {
	Family string `json:"family"`
	// Algorithm the row applies to ("nested95", "comb", ...); empty
	// means the row is the family's algorithm-agnostic default.
	Algorithm string `json:"algorithm,omitempty"`
	// Feature names the size feature x; empty means jobs_depth.
	Feature string  `json:"feature,omitempty"`
	C0      float64 `json:"c0_ns"`
	C1      float64 `json:"c1_ns_per_x"`
	// Points is the number of benchmark samples behind the fit
	// (provenance only; not used for prediction).
	Points int `json:"points"`
}

// Model maps (family, algorithm) pairs to fitted coefficients.
type Model struct {
	Schema   string         `json:"schema"`
	Source   string         `json:"source"`
	Families []Coefficients `json:"families"`

	byKey map[modelKey]Coefficients
}

type modelKey struct{ family, algorithm string }

//go:embed costmodel.json
var embeddedJSON []byte

// Default returns the committed model embedded in the binary
// (regenerated by `atbench -fit`).
func Default() *Model {
	m, err := Parse(embeddedJSON)
	if err != nil {
		// The embedded file is committed alongside this package and
		// validated by its tests; failing to parse it is a build defect.
		panic(fmt.Sprintf("costmodel: embedded costmodel.json invalid: %v", err))
	}
	return m
}

// Parse decodes and indexes a costmodel JSON document.
func Parse(data []byte) (*Model, error) {
	var m Model
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("costmodel: %w", err)
	}
	if m.Schema != Schema {
		return nil, fmt.Errorf("costmodel: schema %q, want %q", m.Schema, Schema)
	}
	if len(m.Families) == 0 {
		return nil, fmt.Errorf("costmodel: no families")
	}
	m.byKey = make(map[modelKey]Coefficients, len(m.Families))
	for _, c := range m.Families {
		if c.C0 < 0 || c.C1 < 0 {
			return nil, fmt.Errorf("costmodel: family %q alg %q has negative coefficients (c0=%g c1=%g)",
				c.Family, c.Algorithm, c.C0, c.C1)
		}
		if !validFeature(c.Feature) {
			return nil, fmt.Errorf("costmodel: family %q alg %q has unknown feature %q",
				c.Family, c.Algorithm, c.Feature)
		}
		k := modelKey{c.Family, c.Algorithm}
		if _, dup := m.byKey[k]; dup {
			return nil, fmt.Errorf("costmodel: duplicate row for family %q alg %q", c.Family, c.Algorithm)
		}
		m.byKey[k] = c
	}
	if _, ok := m.byKey[modelKey{FamilyDefault, ""}]; !ok {
		return nil, fmt.Errorf("costmodel: missing fallback row (family %q, no algorithm)", FamilyDefault)
	}
	return &m, nil
}

// Load reads and parses a costmodel file.
func Load(path string) (*Model, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(b)
}

// WriteFile writes the model as indented JSON.
func (m *Model) WriteFile(path string) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// coeff resolves a (family, algorithm) pair through the fallback
// chain: exact match, the default family with the same algorithm, the
// family's algorithm-agnostic row, and finally the default family's
// agnostic row (whose presence Parse guarantees).
func (m *Model) coeff(family, algorithm string) Coefficients {
	for _, k := range [...]modelKey{
		{family, algorithm},
		{FamilyDefault, algorithm},
		{family, ""},
		{FamilyDefault, ""},
	} {
		if c, ok := m.byKey[k]; ok {
			return c
		}
	}
	return m.byKey[modelKey{FamilyDefault, ""}]
}

// PredictNS predicts the solve cost in nanoseconds for an instance of
// the given family with the given job count and nesting depth, using
// the family's algorithm-agnostic row. Inputs below 1 are clamped to 1
// so the prediction is defined (and still monotone) everywhere.
func (m *Model) PredictNS(family string, jobs, depth int) int64 {
	return m.PredictAlgNS(family, "", jobs, depth)
}

// PredictAlgNS is PredictNS for a specific algorithm, falling back to
// the family's algorithm-agnostic row when no per-algorithm fit
// exists.
func (m *Model) PredictAlgNS(family, algorithm string, jobs, depth int) int64 {
	if jobs < 1 {
		jobs = 1
	}
	if depth < 1 {
		depth = 1
	}
	c := m.coeff(family, algorithm)
	ns := c.C0 + c.C1*featureValue(c.Feature, float64(jobs), float64(depth))
	if ns < 1 {
		ns = 1
	}
	if ns > math.MaxInt64/2 {
		return math.MaxInt64 / 2
	}
	return int64(ns)
}

// Profile is an instance's shape as the cost model and the auto router
// see it: family, job count, nesting depth and, computed on first use,
// the LP size estimate. A request profiles its instance once and hands
// the profile to routing, the memory gate, prediction and telemetry.
// A Profile is not safe for concurrent use.
type Profile struct {
	Family string
	Jobs   int
	Depth  int

	in *instance.Instance
	lp *LPEstimate
}

// NewProfile profiles in: one laminarity check and one depth sweep.
func NewProfile(in *instance.Instance) *Profile {
	return &Profile{Family: FamilyFor(in), Jobs: in.N(), Depth: Depth(in), in: in}
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

// FamilyFor maps an instance onto a cost-model family: nested windows
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
	n := in.N()
	if n == 0 {
		return 1
	}
	type event struct {
		t     int64
		delta int
	}
	events := make([]event, 0, 2*n)
	for _, j := range in.Jobs {
		events = append(events, event{j.Release, +1}, event{j.Deadline, -1})
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].t != events[b].t {
			return events[a].t < events[b].t
		}
		// Close before open at the same point: windows are half-open
		// [r, d), so [0,3) and [3,5) do not overlap.
		return events[a].delta < events[b].delta
	})
	depth, cur := 0, 0
	for _, e := range events {
		cur += e.delta
		if cur > depth {
			depth = cur
		}
	}
	if depth < 1 {
		depth = 1
	}
	return depth
}

// Sample is one fitting observation: a family member with its mean
// jobs, mean depth, and measured per-instance nanoseconds. Algorithm
// and Feature select the model row the sample contributes to; both
// may be empty (the family's agnostic row, jobs·depth feature).
type Sample struct {
	Family    string  `json:"family"`
	Algorithm string  `json:"algorithm,omitempty"`
	Feature   string  `json:"feature,omitempty"`
	Jobs      float64 `json:"jobs"`
	Depth     float64 `json:"depth"`
	NS        float64 `json:"ns"`
}

// Fit solves, per (family, algorithm) pair, the least-squares system
// ns ≈ C0 + C1·x with x the pair's feature, then clamps negative
// coefficients to zero (refitting the surviving coefficient), which
// guarantees monotone predictions. Pairs with a single sample get
// C0 = 0, C1 = ns/x. All samples of a pair must agree on the feature.
// Source is recorded as provenance in the returned model.
func Fit(samples []Sample, source string) (*Model, error) {
	byKey := map[modelKey][]Sample{}
	var order []modelKey
	for _, s := range samples {
		if s.Jobs < 1 || s.Depth < 1 || s.NS <= 0 {
			return nil, fmt.Errorf("costmodel: invalid sample %+v", s)
		}
		if !validFeature(s.Feature) {
			return nil, fmt.Errorf("costmodel: sample has unknown feature %q", s.Feature)
		}
		k := modelKey{s.Family, s.Algorithm}
		if prev, ok := byKey[k]; ok && prev[0].Feature != s.Feature {
			return nil, fmt.Errorf("costmodel: family %q alg %q mixes features %q and %q",
				s.Family, s.Algorithm, prev[0].Feature, s.Feature)
		}
		if _, ok := byKey[k]; !ok {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], s)
	}
	if len(byKey) == 0 {
		return nil, fmt.Errorf("costmodel: no samples")
	}
	m := &Model{Schema: Schema, Source: source}
	for _, k := range order {
		ss := byKey[k]
		c := fitPair(ss)
		c.Family = k.family
		c.Algorithm = k.algorithm
		c.Feature = ss[0].Feature
		c.Points = len(ss)
		m.Families = append(m.Families, c)
	}
	b, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	return Parse(b)
}

// fitPair fits one (family, algorithm) pair's coefficients from its
// samples.
func fitPair(ss []Sample) Coefficients {
	feature := ss[0].Feature
	x := func(s Sample) float64 { return featureValue(feature, s.Jobs, s.Depth) }
	// Through-origin slope, used for single-sample pairs and as the
	// fallback when the affine fit produces a negative coefficient.
	slope := func() float64 {
		var num, den float64
		for _, s := range ss {
			num += x(s) * s.NS
			den += x(s) * x(s)
		}
		if den == 0 {
			return 0
		}
		return num / den
	}
	if len(ss) == 1 {
		return Coefficients{C1: slope()}
	}
	// Affine least squares over (x, ns).
	var sx, sy, sxx, sxy, n float64
	for _, s := range ss {
		v := x(s)
		sx += v
		sy += s.NS
		sxx += v * v
		sxy += v * s.NS
		n++
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return Coefficients{C1: slope()}
	}
	c1 := (n*sxy - sx*sy) / den
	c0 := (sy - c1*sx) / n
	if c1 < 0 {
		// Degenerate data (cost shrinking with size): fall back to a
		// flat model at the mean so monotonicity still holds weakly.
		return Coefficients{C0: sy / n}
	}
	if c0 < 0 {
		return Coefficients{C1: slope()}
	}
	return Coefficients{C0: c0, C1: c1}
}
