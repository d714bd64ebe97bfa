package costmodel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/instance"
)

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
