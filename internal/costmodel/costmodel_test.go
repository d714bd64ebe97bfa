package costmodel

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/instance"
)

func TestDefaultParsesAndCoversFamilies(t *testing.T) {
	m := Default()
	for _, fam := range []string{FamilyLaminar, FamilyUnit, FamilyGeneral} {
		if _, ok := m.byKey[modelKey{fam, ""}]; !ok {
			t.Errorf("embedded model missing family %q", fam)
		}
	}
	if got := m.PredictNS("no-such-family", 10, 2); got != m.PredictNS(FamilyDefault, 10, 2) {
		t.Errorf("unknown family did not fall back to %q", FamilyDefault)
	}
	if m.PredictNS(FamilyLaminar, 1, 1) < 1 {
		t.Error("prediction below 1ns")
	}
}

func TestDepthLaminarChain(t *testing.T) {
	// Three strictly nested windows: depth 3.
	in := instance.MustNew(2, []instance.Job{
		{Processing: 1, Release: 0, Deadline: 100},
		{Processing: 1, Release: 10, Deadline: 90},
		{Processing: 1, Release: 20, Deadline: 80},
	})
	if got := Depth(in); got != 3 {
		t.Fatalf("Depth = %d, want 3", got)
	}
	// Two disjoint half-open windows sharing an endpoint do not stack.
	in2 := instance.MustNew(1, []instance.Job{
		{Processing: 1, Release: 0, Deadline: 3},
		{Processing: 1, Release: 3, Deadline: 6},
	})
	if got := Depth(in2); got != 1 {
		t.Fatalf("Depth(disjoint) = %d, want 1", got)
	}
}

func TestDepthMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		in := gen.RandomGeneral(rng, gen.DefaultGeneral(3+rng.Intn(20), 2))
		want := 0
		lo, hi := int64(1<<62), int64(-1<<62)
		for _, j := range in.Jobs {
			if j.Release < lo {
				lo = j.Release
			}
			if j.Deadline > hi {
				hi = j.Deadline
			}
		}
		for t0 := lo; t0 < hi; t0++ {
			c := 0
			for _, j := range in.Jobs {
				if j.Release <= t0 && t0 < j.Deadline {
					c++
				}
			}
			if c > want {
				want = c
			}
		}
		if want < 1 {
			want = 1
		}
		if got := Depth(in); got != want {
			t.Fatalf("trial %d: Depth = %d, brute force = %d", trial, got, want)
		}
	}
}

func TestFitRecoversExactAffine(t *testing.T) {
	// Samples generated from ns = 1000 + 5·x must be recovered exactly.
	var samples []Sample
	for _, x := range []float64{10, 40, 160} {
		samples = append(samples, Sample{Family: "laminar", Jobs: x, Depth: 1, NS: 1000 + 5*x})
	}
	m, err := Fit(samples, "test")
	if err != nil {
		t.Fatal(err)
	}
	c := m.byKey[modelKey{"laminar", ""}]
	if c.C0 < 999 || c.C0 > 1001 || c.C1 < 4.99 || c.C1 > 5.01 {
		t.Fatalf("fit = %+v, want c0≈1000 c1≈5", c)
	}
}

func TestFitClampsToMonotone(t *testing.T) {
	// Decreasing cost with size would break SJF; the fit must fall back
	// to non-negative coefficients.
	samples := []Sample{
		{Family: "laminar", Jobs: 10, Depth: 1, NS: 5000},
		{Family: "laminar", Jobs: 100, Depth: 1, NS: 1000},
	}
	m, err := Fit(samples, "test")
	if err != nil {
		t.Fatal(err)
	}
	c := m.byKey[modelKey{"laminar", ""}]
	if c.C0 < 0 || c.C1 < 0 {
		t.Fatalf("fit produced negative coefficients: %+v", c)
	}
	// Monotone: bigger never predicted cheaper.
	if m.PredictNS("laminar", 100, 1) < m.PredictNS("laminar", 10, 1) {
		t.Fatal("clamped fit is not monotone")
	}
}

func TestFitSingleSampleThroughOrigin(t *testing.T) {
	m, err := Fit([]Sample{{Family: "unit", Jobs: 32, Depth: 4, NS: 12800}}, "test")
	if err == nil {
		// Single family fit: need the default family too.
		_ = m
	}
	// A model without the fallback family must be rejected.
	if err == nil {
		t.Fatal("Fit accepted a model without the fallback family")
	}
}

func TestPerAlgorithmRowsAndFallback(t *testing.T) {
	m, err := Fit([]Sample{
		{Family: FamilyLaminar, Jobs: 12, Depth: 3, NS: 97000},
		{Family: FamilyLaminar, Jobs: 32, Depth: 4, NS: 157000},
		{Family: FamilyLaminar, Algorithm: "comb", Feature: FeatureJobs, Jobs: 1000, Depth: 900, NS: 500000},
		{Family: FamilyLaminar, Algorithm: "nested95", Feature: FeatureJobsDepth3, Jobs: 48, Depth: 48, NS: 9e8},
	}, "test")
	if err != nil {
		t.Fatal(err)
	}
	// comb's jobs-only feature ignores depth entirely.
	if a, b := m.PredictAlgNS(FamilyLaminar, "comb", 1000, 1), m.PredictAlgNS(FamilyLaminar, "comb", 1000, 900); a != b {
		t.Fatalf("comb prediction depends on depth: %d vs %d", a, b)
	}
	// nested95's cubic depth feature must dwarf comb on a deep chain.
	if lp, cb := m.PredictAlgNS(FamilyLaminar, "nested95", 900, 900), m.PredictAlgNS(FamilyLaminar, "comb", 900, 900); lp < 100*cb {
		t.Fatalf("deep chain: nested95=%dns not ≫ comb=%dns", lp, cb)
	}
	// Unknown algorithm falls back to the family's agnostic row.
	if got, want := m.PredictAlgNS(FamilyLaminar, "no-such-alg", 10, 2), m.PredictNS(FamilyLaminar, 10, 2); got != want {
		t.Fatalf("unknown algorithm: got %d want agnostic %d", got, want)
	}
	// Unknown family with a known algorithm uses the default family's
	// row for that algorithm.
	if got, want := m.PredictAlgNS("no-such-family", "comb", 500, 3), m.PredictAlgNS(FamilyLaminar, "comb", 500, 3); got != want {
		t.Fatalf("family fallback with algorithm: got %d want %d", got, want)
	}
}

func TestFitRejectsMixedFeatures(t *testing.T) {
	_, err := Fit([]Sample{
		{Family: FamilyLaminar, Jobs: 10, Depth: 2, NS: 100, Feature: FeatureJobs},
		{Family: FamilyLaminar, Jobs: 20, Depth: 2, NS: 200, Feature: FeatureJobsDepth},
	}, "test")
	if err == nil {
		t.Fatal("Fit accepted mixed features within one (family, algorithm) pair")
	}
}

func TestFamilyFor(t *testing.T) {
	unit := instance.MustNew(2, []instance.Job{
		{Processing: 1, Release: 0, Deadline: 4},
		{Processing: 1, Release: 1, Deadline: 3},
	})
	if got := FamilyFor(unit); got != FamilyUnit {
		t.Errorf("FamilyFor(unit nested) = %q", got)
	}
	lam := instance.MustNew(2, []instance.Job{
		{Processing: 2, Release: 0, Deadline: 4},
		{Processing: 1, Release: 1, Deadline: 3},
	})
	if got := FamilyFor(lam); got != FamilyLaminar {
		t.Errorf("FamilyFor(laminar) = %q", got)
	}
	gen := instance.MustNew(2, []instance.Job{
		{Processing: 1, Release: 0, Deadline: 3},
		{Processing: 1, Release: 2, Deadline: 5},
	})
	if got := FamilyFor(gen); got != FamilyGeneral {
		t.Errorf("FamilyFor(crossing) = %q", got)
	}
}

func TestEstimateLPChainGrowth(t *testing.T) {
	chain := func(depth int) *instance.Instance {
		jobs := make([]instance.Job, depth)
		for k := 0; k < depth; k++ {
			jobs[k] = instance.Job{Processing: 1, Release: int64(k), Deadline: int64(2*depth - k)}
		}
		return instance.MustNew(2, jobs)
	}
	// Exact pair count on a strict chain: job at level k contains the
	// depth-k windows below it plus its own, Σ_{k=0}^{d-1} (d-k).
	for _, d := range []int{1, 2, 5, 30} {
		e := EstimateLP(chain(d))
		want := int64(d) * int64(d+1) / 2
		if e.Pairs != want {
			t.Errorf("depth %d: pairs = %d, want %d", d, e.Pairs, want)
		}
		if e.Nodes != int64(d) {
			t.Errorf("depth %d: nodes = %d, want %d", d, e.Nodes, d)
		}
	}
	// The depth-900 production shape must estimate far past any sane
	// memory cap: pairs ~ 405k, tableau ~ multiple terabytes.
	e := EstimateLP(chain(900))
	if e.Pairs != 900*901/2 {
		t.Errorf("depth-900 pairs = %d", e.Pairs)
	}
	if e.TableauBytes < int64(1)<<40 {
		t.Errorf("depth-900 tableau floor = %d bytes, want ≥ 1 TiB", e.TableauBytes)
	}
	// Monotone in depth.
	if EstimateLP(chain(10)).TableauBytes <= EstimateLP(chain(5)).TableauBytes {
		t.Error("tableau estimate not growing with depth")
	}
}

func TestEstimateLPComponentsTakeMax(t *testing.T) {
	// Two disjoint components: a deep chain and a single job. The
	// estimate must be the chain's, not a merged figure.
	jobs := []instance.Job{{Processing: 1, Release: 1000, Deadline: 1001}}
	for k := 0; k < 12; k++ {
		jobs = append(jobs, instance.Job{Processing: 1, Release: int64(k), Deadline: int64(24 - k)})
	}
	in := instance.MustNew(2, jobs)
	solo := instance.MustNew(2, jobs[1:])
	if got, want := EstimateLP(in), EstimateLP(solo); got != want {
		t.Errorf("forest estimate %+v != dominant component %+v", got, want)
	}
}

// TestLPCeilingBoundsEstimate: the job-count ceiling SolveBytes("auto")
// charges is never below EstimateLP, on random forests, chains, and a
// wide window over many disjoint ones (pairs well above depth²), and it
// is tight for a single job.
func TestLPCeilingBoundsEstimate(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var ins []*instance.Instance
	for trial := 0; trial < 50; trial++ {
		ins = append(ins, gen.RandomLaminar(rng, gen.DefaultLaminar(2+rng.Intn(40), 3)))
	}
	for _, n := range []int{1, 2, 30} {
		ins = append(ins, gen.NestedChain(n, 2, 1))
		wide := []instance.Job{{Processing: 1, Release: 0, Deadline: int64(2 * n)}}
		for k := 0; k < n; k++ {
			wide = append(wide, instance.Job{Processing: 1, Release: int64(2 * k), Deadline: int64(2*k + 1)})
		}
		ins = append(ins, instance.MustNew(2, wide))
	}
	for _, in := range ins {
		if e, c := EstimateLP(in).TableauBytes, lpCeilingBytes(int64(in.N())); e > c {
			t.Fatalf("%d jobs: estimate %d above ceiling %d\n%v", in.N(), e, c, in.Jobs)
		}
	}
	one := instance.MustNew(1, []instance.Job{{Processing: 1, Release: 0, Deadline: 5}})
	if e, c := EstimateLP(one).TableauBytes, lpCeilingBytes(1); e != c {
		t.Fatalf("single job: estimate %d, ceiling %d", e, c)
	}
}

func TestEstimateLPEmpty(t *testing.T) {
	if e := EstimateLP(&instance.Instance{G: 2}); e.TableauBytes != 0 {
		t.Errorf("empty estimate = %+v", e)
	}
}

func TestLoadRoundTrip(t *testing.T) {
	m, err := Fit([]Sample{
		{Family: FamilyLaminar, Jobs: 12, Depth: 3, NS: 97000},
		{Family: FamilyLaminar, Jobs: 32, Depth: 4, NS: 157000},
		{Family: FamilyUnit, Jobs: 32, Depth: 4, NS: 120000},
	}, "test")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cm.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{FamilyLaminar, FamilyUnit} {
		if m.PredictNS(fam, 50, 5) != m2.PredictNS(fam, 50, 5) {
			t.Errorf("family %s: prediction changed across round trip", fam)
		}
	}
}

// TestProfile: a profile carries the same facts the standalone
// functions compute, and its LP estimate is computed once.
func TestProfile(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := gen.RandomLaminar(rng, gen.DefaultLaminar(20, 3))
	p := NewProfile(in)
	if p.Family != FamilyFor(in) || p.Jobs != in.N() || p.Depth != Depth(in) ||
		p.Slots != int64(len(in.SortedSlots())) || p.Units != in.TotalProcessing() {
		t.Fatalf("profile %+v disagrees with FamilyFor/N/Depth/SortedSlots/TotalProcessing", p)
	}
	if p.lp != nil {
		t.Fatal("LP estimate computed before first use")
	}
	if got, want := p.LP(), EstimateLP(in); got != want {
		t.Fatalf("LP() = %+v, want %+v", got, want)
	}
	first := p.lp
	p.LP()
	if p.lp != first {
		t.Fatal("LP estimate recomputed")
	}
}

// TestSolveBytes: the slot universe excludes gaps between windows, the
// per-slot terms apply only to the algorithms that walk slots, and the
// estimate saturates instead of overflowing.
func TestSolveBytes(t *testing.T) {
	in := instance.MustNew(2, []instance.Job{
		{Processing: 2, Release: 0, Deadline: 10},
		{Processing: 1, Release: 5, Deadline: 15},
		{Processing: 3, Release: 1000, Deadline: 1010},
	})
	p := NewProfile(in)
	if p.Slots != 25 || p.Units != 6 {
		t.Fatalf("slots %d units %d, want 25 and 6", p.Slots, p.Units)
	}
	wide := NewProfile(instance.MustNew(1, []instance.Job{{Processing: 1, Release: 0, Deadline: 1 << 40}}))
	for _, alg := range []string{"greedy-minimal", "greedy-rtl", "nested95", "exact"} {
		if got := wide.SolveBytes(alg); got > 1<<20 {
			t.Errorf("%s: %d bytes for one unit job; its work does not follow the window", alg, got)
		}
	}
	for _, alg := range []string{"auto", "comb", "all-open"} {
		if got := wide.SolveBytes(alg); got < 1<<40 {
			t.Errorf("%s: %d bytes for a 2⁴⁰-slot window", alg, got)
		}
	}
	// exact's general search still decides slot by slot.
	crossing := NewProfile(instance.MustNew(1, []instance.Job{
		{Processing: 1, Release: 0, Deadline: 1 << 40},
		{Processing: 1, Release: 1, Deadline: 1<<40 + 1},
	}))
	if got := crossing.SolveBytes("exact"); got < 1<<40 {
		t.Errorf("exact: %d bytes for crossing 2⁴⁰-slot windows", got)
	}
	huge := NewProfile(instance.MustNew(1, []instance.Job{
		{Processing: math.MaxInt64 / 2, Release: 0, Deadline: math.MaxInt64 / 2},
		{Processing: math.MaxInt64 / 2, Release: 0, Deadline: math.MaxInt64 / 2},
		{Processing: math.MaxInt64 / 2, Release: 0, Deadline: math.MaxInt64 / 2},
	}))
	if huge.Units != math.MaxInt64 {
		t.Errorf("units %d, want saturation at MaxInt64", huge.Units)
	}
	if got := huge.SolveBytes("all-open"); got != math.MaxInt64 {
		t.Errorf("all-open: %d bytes, want saturation at MaxInt64", got)
	}
}
