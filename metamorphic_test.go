package activetime

// Metamorphic tests: transformations of an instance with a known
// effect on the optimum must move every solver's output accordingly.
// These catch bugs that single-instance oracles cannot (e.g. hidden
// dependence on absolute time values or job order).

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/gen"
	"repro/internal/jobs"
)

func TestShiftInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(3001))
	for trial := 0; trial < 20; trial++ {
		in := gen.RandomLaminar(rng, gen.DefaultLaminar(7, int64(1+rng.Intn(3))))
		delta := int64(rng.Intn(2000) - 1000)
		shifted := in.Shift(delta)
		for _, alg := range []Algorithm{AlgNested95, AlgGreedyMinimal, AlgGreedyRTL, AlgExact} {
			a, err := Solve(in, alg)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, alg, err)
			}
			b, err := Solve(shifted, alg)
			if err != nil {
				t.Fatalf("trial %d %s shifted: %v", trial, alg, err)
			}
			if a.ActiveSlots != b.ActiveSlots {
				t.Fatalf("trial %d %s: shift by %d changed objective %d -> %d",
					trial, alg, delta, a.ActiveSlots, b.ActiveSlots)
			}
			if err := b.Schedule.Validate(shifted); err != nil {
				t.Fatalf("trial %d %s: %v", trial, alg, err)
			}
		}
	}
}

func TestPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(3003))
	for trial := 0; trial < 20; trial++ {
		in := gen.RandomLaminar(rng, gen.DefaultLaminar(8, int64(1+rng.Intn(3))))
		perm := rng.Perm(in.N())
		shuffled := in.Permute(perm)
		for _, alg := range []Algorithm{AlgNested95, AlgExact} {
			a, err := Solve(in, alg)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, alg, err)
			}
			b, err := Solve(shuffled, alg)
			if err != nil {
				t.Fatalf("trial %d %s shuffled: %v", trial, alg, err)
			}
			if a.ActiveSlots != b.ActiveSlots {
				t.Fatalf("trial %d %s: permutation changed objective %d -> %d",
					trial, alg, a.ActiveSlots, b.ActiveSlots)
			}
		}
	}
}

// TestDisjointUnionAdditivity: solving two far-apart copies costs
// exactly the sum.
func TestDisjointUnionAdditivity(t *testing.T) {
	rng := rand.New(rand.NewSource(3005))
	for trial := 0; trial < 15; trial++ {
		in := gen.RandomLaminar(rng, gen.DefaultLaminar(6, 2))
		far := in.Shift(10_000)
		jobs := append(append([]Job{}, in.Jobs...), far.Jobs...)
		union, err := NewInstance(in.G, jobs)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []Algorithm{AlgNested95, AlgExact} {
			single, err := Solve(in, alg)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, alg, err)
			}
			double, err := Solve(union, alg)
			if err != nil {
				t.Fatalf("trial %d %s union: %v", trial, alg, err)
			}
			if double.ActiveSlots != 2*single.ActiveSlots {
				t.Fatalf("trial %d %s: union %d != 2 × %d",
					trial, alg, double.ActiveSlots, single.ActiveSlots)
			}
		}
	}
}

// TestCapacityMonotonicity: walking g up a chain of values, the exact
// optimum must be non-increasing at every step — more parallel capacity
// can never force more active slots.
func TestCapacityMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(3011))
	gs := []int64{1, 2, 3, 5, 8}
	for trial := 0; trial < 12; trial++ {
		in := gen.RandomLaminar(rng, gen.DefaultLaminar(7, 1))
		prev := int64(-1)
		for _, g := range gs {
			cur := in.Clone()
			cur.G = g
			opt, err := Optimal(cur)
			if err != nil {
				t.Fatalf("trial %d g=%d: %v", trial, g, err)
			}
			if prev >= 0 && opt > prev {
				t.Fatalf("trial %d: raising g to %d increased OPT %d -> %d",
					trial, g, prev, opt)
			}
			prev = opt
		}
	}
}

// TestDuplicationDoubling: the union of an instance with a far-shifted
// copy of itself must cost exactly twice as much for every solver —
// approximate and greedy ones included, since each runs per laminar
// forest and the two copies are identical forests. The parallel-forest
// path must agree with the sequential one on the doubled instance.
func TestDuplicationDoubling(t *testing.T) {
	rng := rand.New(rand.NewSource(3013))
	for trial := 0; trial < 12; trial++ {
		in := gen.RandomLaminar(rng, gen.DefaultLaminar(6, int64(1+rng.Intn(3))))
		far := in.Shift(50_000)
		jobs := append(append([]Job{}, in.Jobs...), far.Jobs...)
		union, err := NewInstance(in.G, jobs)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []Algorithm{AlgNested95, AlgGreedyMinimal, AlgGreedyRTL, AlgExact} {
			single, err := Solve(in, alg)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, alg, err)
			}
			double, err := Solve(union, alg)
			if err != nil {
				t.Fatalf("trial %d %s union: %v", trial, alg, err)
			}
			if double.ActiveSlots != 2*single.ActiveSlots {
				t.Fatalf("trial %d %s: duplicated instance costs %d, want 2 × %d",
					trial, alg, double.ActiveSlots, single.ActiveSlots)
			}
			if err := double.Schedule.Validate(union); err != nil {
				t.Fatalf("trial %d %s: %v", trial, alg, err)
			}
		}
		par, err := SolveNested95(union, SolveOptions{Workers: 4})
		if err != nil {
			t.Fatalf("trial %d parallel: %v", trial, err)
		}
		seq, err := SolveNested95(union, SolveOptions{Workers: 1})
		if err != nil {
			t.Fatalf("trial %d sequential: %v", trial, err)
		}
		if par.ActiveSlots != seq.ActiveSlots {
			t.Fatalf("trial %d: workers=4 gives %d slots, workers=1 gives %d",
				trial, par.ActiveSlots, seq.ActiveSlots)
		}
	}
}

// TestCostModelMonotone: within every family — including the fallback
// for an unknown family — the predicted cost is non-decreasing in the
// job count (depth fixed) and in the nesting depth (jobs fixed). This
// is the property that makes shortest-predicted-job-first coherent: a
// strictly larger instance can never be predicted cheaper, so SJF
// cannot invert on a growth transformation.
func TestCostModelMonotone(t *testing.T) {
	m := costmodel.Default()
	families := []string{
		costmodel.FamilyLaminar, costmodel.FamilyUnit,
		costmodel.FamilyGeneral, "no-such-family",
	}
	// Every per-algorithm row (and the fallback for unknown algorithms)
	// must be monotone too — the fitted features (jobs·depth,
	// jobs·depth³, jobs) are all non-decreasing and the coefficients
	// are clamped non-negative.
	algorithms := []string{
		"", string(AlgNested95), string(AlgCombinatorial),
		string(AlgGreedyMinimal), "no-such-alg",
	}
	grid := []int{1, 2, 3, 5, 8, 13, 34, 144, 1000}
	for _, fam := range families {
		for _, alg := range algorithms {
			for _, depth := range grid {
				prev := int64(-1)
				for _, jobsN := range grid {
					got := m.PredictAlgNS(fam, alg, jobsN, depth)
					if got < prev {
						t.Fatalf("%s/%s: prediction fell %d -> %d raising jobs to %d at depth %d",
							fam, alg, prev, got, jobsN, depth)
					}
					prev = got
				}
			}
			for _, jobsN := range grid {
				prev := int64(-1)
				for _, depth := range grid {
					got := m.PredictAlgNS(fam, alg, jobsN, depth)
					if got < prev {
						t.Fatalf("%s/%s: prediction fell %d -> %d raising depth to %d at jobs %d",
							fam, alg, prev, got, depth, jobsN)
					}
					prev = got
				}
			}
		}
	}
}

// TestCostModelDeepChainHonesty pins the fix for the linear
// underprediction on deep chains: the LP pipeline's predicted cost
// must grow superlinearly in depth (its tableau is ~depth⁴, its work
// ~depth³ on chains), overtake the combinatorial solver's prediction
// on deep chains, and exceed the router's latency cap at the depth
// the depth-900 repro runs at — which is exactly why AlgAuto keeps
// such instances off the LP.
func TestCostModelDeepChainHonesty(t *testing.T) {
	m := costmodel.Default()
	lpAt := func(depth int) int64 {
		return m.PredictAlgNS(costmodel.FamilyUnit, string(AlgNested95), depth, depth)
	}
	// Superlinear growth in depth: doubling the depth of a chain (which
	// doubles jobs too) must more than double the LP prediction.
	for _, d := range []int{32, 64, 128, 256} {
		lo, hi := lpAt(d), lpAt(2*d)
		if hi <= 2*lo {
			t.Fatalf("LP prediction grew linearly on chains: depth %d -> %d gives %d -> %d", d, 2*d, lo, hi)
		}
	}
	// On the repro shape the LP prediction must dwarf comb's and bust
	// the router's 500ms cap.
	lp900 := lpAt(900)
	comb900 := m.PredictAlgNS(costmodel.FamilyUnit, string(AlgCombinatorial), 900, 900)
	if lp900 <= comb900 {
		t.Fatalf("depth-900 chain: LP predicted %d ns <= comb %d ns", lp900, comb900)
	}
	if cap := DefaultRouteLimits().MaxLPPredictedNS; lp900 <= cap {
		t.Fatalf("depth-900 chain: LP predicted %d ns under the router cap %d", lp900, cap)
	}
}

// TestCostModelInstanceMonotone: unioning an instance with a
// far-shifted copy of itself (the duplication transform the solver
// suite uses) doubles the job count without lowering the depth, so the
// predicted cost must not decrease.
func TestCostModelInstanceMonotone(t *testing.T) {
	m := costmodel.Default()
	rng := rand.New(rand.NewSource(3015))
	for trial := 0; trial < 12; trial++ {
		in := gen.RandomLaminar(rng, gen.DefaultLaminar(6, 2))
		far := in.Shift(50_000)
		union, err := NewInstance(in.G, append(append([]Job{}, in.Jobs...), far.Jobs...))
		if err != nil {
			t.Fatal(err)
		}
		single := m.PredictNS(costmodel.FamilyLaminar, in.N(), costmodel.Depth(in))
		double := m.PredictNS(costmodel.FamilyLaminar, union.N(), costmodel.Depth(union))
		if double < single {
			t.Fatalf("trial %d: duplication lowered prediction %d -> %d", trial, single, double)
		}
		if d := costmodel.Depth(union); d < costmodel.Depth(in) {
			t.Fatalf("trial %d: duplication lowered depth %d -> %d", trial, costmodel.Depth(in), d)
		}
	}
}

// TestSJFOrderInvariantUnderDuplication: duplicating a job stream must
// not change the relative execution order of the original jobs under
// SJF — duplicates (equal predicted cost, later arrival) slot in after
// their originals by the seq tiebreak, so the originals' order is
// preserved as a subsequence. A policy that compared non-deterministically
// (map iteration, pointer order) would fail this under repetition.
func TestSJFOrderInvariantUnderDuplication(t *testing.T) {
	rng := rand.New(rand.NewSource(3017))
	for trial := 0; trial < 10; trial++ {
		preds := make([]int64, 12)
		for i := range preds {
			preds[i] = int64(1 + rng.Intn(40)) // small range forces ties
		}
		// originalOrder submits `copies` interleaved copies of the stream
		// into a Manual SJF queue, drains it, and returns the execution
		// order of the FIRST copy's jobs as submission indices.
		originalOrder := func(copies int) []int {
			q := jobs.New(jobs.Config{
				MaxRunning: 1, MaxQueued: 128, Manual: true, Policy: jobs.SJF{},
			}, func(ctx context.Context, j *jobs.Job) (any, error) { return nil, nil })
			defer q.Close(context.Background())
			idx := map[string]int{}
			for c := 0; c < copies; c++ {
				for i, p := range preds {
					j, err := q.Submit(jobs.ClassBatch, p, nil)
					if err != nil {
						t.Fatal(err)
					}
					if c == 0 {
						idx[j.ID()] = i
					}
				}
			}
			var order []int
			for {
				j, ok := q.Step()
				if !ok {
					break
				}
				if i, seen := idx[j.ID()]; seen {
					order = append(order, i)
				}
			}
			return order
		}
		single := originalOrder(1)
		doubled := originalOrder(2)
		if len(single) != len(preds) {
			t.Fatalf("trial %d: drained %d of %d jobs", trial, len(single), len(preds))
		}
		if !reflect.DeepEqual(single, doubled) {
			t.Fatalf("trial %d: duplicating the stream reordered the originals:\n single %v\ndoubled %v",
				trial, single, doubled)
		}
	}
}

// TestGScalingNeverHurts: raising g can only help every algorithm with
// a monotone objective (exact; for approximations we check they don't
// violate their guarantee against the new optimum).
func TestGScalingNeverHurts(t *testing.T) {
	rng := rand.New(rand.NewSource(3007))
	for trial := 0; trial < 15; trial++ {
		in := gen.RandomLaminar(rng, gen.DefaultLaminar(7, 2))
		big := in.Clone()
		big.G = in.G * 2
		a, err := Optimal(in)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Optimal(big)
		if err != nil {
			t.Fatal(err)
		}
		if b > a {
			t.Fatalf("trial %d: doubling g raised OPT %d -> %d", trial, a, b)
		}
		res, err := Solve(big, AlgNested95)
		if err != nil {
			t.Fatal(err)
		}
		if float64(res.ActiveSlots) > ApproxRatio*float64(b)+1e-9 {
			t.Fatalf("trial %d: guarantee violated after g scaling", trial)
		}
	}
}
