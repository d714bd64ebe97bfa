package activetime

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/instance"
	"repro/internal/solvecache"
)

// canonical returns in with jobs permuted into the cache's canonical
// order, as the server does before solving and caching.
func canonical(in *Instance) *Instance {
	return in.Permute(solvecache.CanonicalOrder(in))
}

func TestClassifyDelta(t *testing.T) {
	base := canonical(instance.MustNew(2, []Job{
		{Processing: 2, Release: 0, Deadline: 6},
		{Processing: 1, Release: 1, Deadline: 3},
		{Processing: 1, Release: 8, Deadline: 10},
	}))

	// Raised g.
	raised := base.Clone()
	raised.G = 4
	if d := ClassifyDelta(base, canonical(raised)); d.Kind != WarmRaiseG {
		t.Fatalf("raised g classified as %q", d.Kind)
	}
	// Lowered g: cold.
	lowered := base.Clone()
	lowered.G = 1
	if d := ClassifyDelta(base, canonical(lowered)); d.Kind != WarmNone {
		t.Fatalf("lowered g classified as %q", d.Kind)
	}
	// Superset nested in the forest ([3,6) sits inside [0,6) without
	// crossing [1,3)).
	grown := canonical(instance.MustNew(2, append(append([]Job(nil), base.Jobs...),
		Job{Processing: 1, Release: 3, Deadline: 6})))
	d := ClassifyDelta(base, grown)
	if d.Kind != WarmSuperset {
		t.Fatalf("nested growth classified as %q", d.Kind)
	}
	if len(d.NewJobs) != 1 || len(d.Mapping) != base.N() {
		t.Fatalf("superset delta = %+v", d)
	}
	// The mapping must point each base job at an identical delta job.
	for bi, di := range d.Mapping {
		b, g := base.Jobs[bi], grown.Jobs[di]
		if b.Release != g.Release || b.Deadline != g.Deadline || b.Processing != g.Processing {
			t.Fatalf("mapping[%d]=%d relates different jobs %+v vs %+v", bi, di, b, g)
		}
	}
	// Removed job: cold.
	shrunk := canonical(instance.MustNew(2, base.Jobs[:2]))
	if d := ClassifyDelta(base, shrunk); d.Kind != WarmNone {
		t.Fatalf("job removal classified as %q", d.Kind)
	}
	// Superset with changed g: cold.
	grownG := grown.Clone()
	grownG.G = 3
	if d := ClassifyDelta(base, grownG); d.Kind != WarmNone {
		t.Fatalf("superset+raise classified as %q", d.Kind)
	}
}

// TestSolveWarmCtxEndToEnd drives the full library-level warm path on
// a fixed instance.
func TestSolveWarmCtxEndToEnd(t *testing.T) {
	in := canonical(gen.NestedForest(3, 3, 2, 2, 2))
	base, err := SolveCombinatorialCtx(context.Background(), in, SolveOptions{CaptureWarm: true})
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	if base.Warm == nil {
		t.Fatal("no warm state")
	}
	delta := in.Clone()
	delta.G = in.G + 2
	d := ClassifyDelta(base.Warm.Base, delta)
	if d.Kind != WarmRaiseG {
		t.Fatalf("kind %q", d.Kind)
	}
	res, err := SolveWarmCtx(context.Background(), delta, base.Warm, d, SolveOptions{CaptureWarm: true})
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if err := res.Schedule.Validate(delta); err != nil {
		t.Fatalf("invalid warm schedule: %v", err)
	}
	if res.Algorithm != AlgCombinatorial {
		t.Fatalf("warm result algorithm %q", res.Algorithm)
	}
	if res.ActiveSlots > base.ActiveSlots {
		t.Fatalf("warm %d > base %d", res.ActiveSlots, base.ActiveSlots)
	}
	if res.Warm == nil {
		t.Fatal("warm state not re-captured")
	}
}

// TestSolveWarmCtxUnsupported pins that a delta the classifier did not
// accept, or a missing state, is refused as a mismatch (solve cold).
func TestSolveWarmCtxUnsupported(t *testing.T) {
	in := canonical(gen.NestedForest(2, 2, 2, 2, 2))
	base, err := SolveCombinatorialCtx(context.Background(), in, SolveOptions{CaptureWarm: true})
	if err != nil {
		t.Fatal(err)
	}
	raised := in.Clone()
	raised.G++
	if _, err := SolveWarmCtx(context.Background(), raised, base.Warm, Delta{}, SolveOptions{}); !errors.Is(err, ErrWarmMismatch) {
		t.Fatalf("unclassified delta: err = %v, want ErrWarmMismatch", err)
	}
	if _, err := SolveWarmCtx(context.Background(), raised, nil, Delta{Kind: WarmRaiseG}, SolveOptions{}); !errors.Is(err, ErrWarmMismatch) {
		t.Fatalf("nil state: err = %v, want ErrWarmMismatch", err)
	}
	// Results that retain nothing (here the 9/5 pipeline's) offer no
	// state to resume.
	lp, err := SolveNested95Ctx(context.Background(), in, SolveOptions{CaptureWarm: true})
	if err != nil {
		t.Fatal(err)
	}
	if lp.Warm != nil {
		t.Fatal("nested95 result retained warm state")
	}
}

// FuzzWarmVsCold is the differential fuzz target for delta solving: on
// seeded random laminar instances it solves cold with warm capture,
// derives a randomized near-miss delta (raised g or a nested job
// superset), resumes warm, and cross-checks the warm result against a
// cold solve of the delta and the exact optimum. Divergence means any
// of: invalid warm schedule, warm objective below OPT or above the
// monotone acceptance bound, or an unexpected fallback for a delta the
// classifier accepted. Run via `make fuzz-smoke` (and CI).
func FuzzWarmVsCold(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(2), uint8(1))
	f.Add(int64(7), uint8(12), uint8(3), uint8(2))
	f.Add(int64(42), uint8(10), uint8(1), uint8(3))
	f.Add(int64(-9), uint8(5), uint8(0), uint8(0))
	f.Add(int64(1234), uint8(200), uint8(7), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, n, g uint8, mutate uint8) {
		jobs := 2 + int(n)%11 // 2..12: exact oracle stays cheap
		capg := 1 + int64(g)%3
		rng := rand.New(rand.NewSource(seed))
		in := canonical(gen.RandomLaminar(rng, gen.DefaultLaminar(jobs, capg)))

		base, err := SolveCombinatorialCtx(context.Background(), in, SolveOptions{CaptureWarm: true})
		if err != nil {
			t.Fatalf("cold base: %v\n%v", err, in.Jobs)
		}
		if base.Warm == nil {
			t.Fatalf("no warm state captured\n%v", in.Jobs)
		}

		// Derive the delta: raised g, or a nested superset.
		var delta *Instance
		wantKind := WarmRaiseG
		if mutate%2 == 1 {
			k := 1 + int(mutate)%2
			js := append([]Job(nil), in.Jobs...)
			for a := 0; a < k; a++ {
				src := in.Jobs[rng.Intn(in.N())]
				js = append(js, Job{Processing: 1, Release: src.Release, Deadline: src.Deadline})
			}
			delta = canonical(instance.MustNew(in.G, js))
			wantKind = WarmSuperset
		} else {
			delta = in.Clone()
			delta.G = in.G + 1 + int64(mutate)%3
		}

		d := ClassifyDelta(base.Warm.Base, delta)
		if d.Kind != wantKind {
			t.Fatalf("classified %q, want %q\nbase %v\ndelta %v", d.Kind, wantKind, in.Jobs, delta.Jobs)
		}

		warm, err := SolveWarmCtx(context.Background(), delta, base.Warm, d, SolveOptions{})
		if err != nil {
			if wantKind == WarmSuperset {
				// A superset may be infeasible at the same g, or the
				// incremental greedy may legitimately come up short;
				// both are counted fallbacks, not divergence — but only
				// when a cold solve agrees the delta is hard.
				if _, cerr := SolveCtx(context.Background(), delta, AlgCombinatorial); cerr != nil {
					return // infeasible for cold too: consistent
				}
				if errors.Is(err, ErrWarmMismatch) {
					return // feasible but shortfall: allowed fallback
				}
			}
			t.Fatalf("unexpected warm failure on %s delta: %v\nbase %v\ndelta %v",
				wantKind, err, in.Jobs, delta.Jobs)
		}

		if err := warm.Schedule.Validate(delta); err != nil {
			t.Fatalf("warm schedule invalid: %v\ndelta %v", err, delta.Jobs)
		}
		bound := base.Warm.ActiveSlots
		if wantKind == WarmSuperset {
			for _, ji := range d.NewJobs {
				bound += delta.Jobs[ji].Processing
			}
		}
		if warm.ActiveSlots > bound {
			t.Fatalf("warm %d exceeds monotone bound %d\ndelta %v", warm.ActiveSlots, bound, delta.Jobs)
		}
		opt, err := exact.Opt(delta)
		if err != nil {
			t.Fatalf("exact: %v\ndelta %v", err, delta.Jobs)
		}
		if warm.ActiveSlots < opt {
			t.Fatalf("warm %d below exact optimum %d\ndelta %v", warm.ActiveSlots, opt, delta.Jobs)
		}
		cold, err := SolveCtx(context.Background(), delta, AlgCombinatorial)
		if err != nil {
			t.Fatalf("cold delta: %v\ndelta %v", err, delta.Jobs)
		}
		if err := cold.Schedule.Validate(delta); err != nil {
			t.Fatalf("cold schedule invalid: %v\ndelta %v", err, delta.Jobs)
		}
	})
}
