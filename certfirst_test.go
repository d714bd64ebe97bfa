package activetime

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/comb"
	"repro/internal/costmodel"
	"repro/internal/exact"
	"repro/internal/gapfam"
	"repro/internal/gen"
	"repro/internal/instance"
)

// forestOf places the given instances side by side, far enough apart
// that each is its own forest component.
func forestOf(g int64, parts ...*Instance) *Instance {
	var jobs []Job
	for k, p := range parts {
		jobs = append(jobs, p.Shift(int64(k)*100000).Jobs...)
	}
	return instance.MustNew(g, jobs)
}

// TestCertificateFirstGapFamilies runs the certificate-first solve on
// gap-family instances where comb misses the tree bound, so the LP
// fallback must run and win, and on a forest that mixes such a
// component with ones comb solves optimally, so the splice keeps comb's
// schedule there and the LP's where it is better.
func TestCertificateFirstGapFamilies(t *testing.T) {
	for _, tc := range []struct {
		name                string
		in                  *Instance
		slots, bound, combN int64
	}{
		// comb 6, nested95 5, bound 4, OPT 5.
		{"nested32-g3", gapfam.Nested32(3), 5, 4, 6},
		// comb 10, nested95 8 = bound.
		{"staircase-l4-g2", gapfam.Staircase(4, 2), 8, 8, 10},
		// The unit chain is comb-certified (2 = bound 2). The LP
		// replaces the other two: Nested32(3) as above, and
		// Staircase(4,3) with comb 9, nested95 8 = bound.
		{"mixed-forest", forestOf(3, gen.NestedChain(6, 3, 1), gapfam.Nested32(3), gapfam.Staircase(4, 3)),
			15, 14, 17},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := SolveCertificateFirstCtx(context.Background(), tc.in, SolveOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Schedule.Validate(tc.in); err != nil {
				t.Fatalf("invalid schedule: %v", err)
			}
			if got := res.Schedule.NumActive(); got != res.ActiveSlots {
				t.Fatalf("schedule has %d active slots, result says %d", got, res.ActiveSlots)
			}
			if res.Algorithm != AlgNested95 {
				t.Errorf("labelled %s, want nested95: the LP replaced a component", res.Algorithm)
			}
			if res.ActiveSlots != tc.slots || res.LowerBound != tc.bound {
				t.Errorf("slots %d bound %d, want %d and %d", res.ActiveSlots, res.LowerBound, tc.slots, tc.bound)
			}
			alone, err := SolveCombinatorial(tc.in, SolveOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if alone.ActiveSlots != tc.combN {
				t.Errorf("comb alone %d, want %d", alone.ActiveSlots, tc.combN)
			}
			// Per component, auto keeps the better of comb and the LP.
			var want int64
			comps, _ := tc.in.Components()
			for _, c := range comps {
				cb, err := SolveCombinatorial(c, SolveOptions{})
				if err != nil {
					t.Fatal(err)
				}
				lp, err := SolveNested95(c, SolveOptions{})
				if err != nil {
					t.Fatal(err)
				}
				want += min(cb.ActiveSlots, lp.ActiveSlots)
			}
			if res.ActiveSlots != want {
				t.Errorf("auto %d, want the per-component best %d", res.ActiveSlots, want)
			}
		})
	}
}

// TestCertificateFirstCertifiedKeepsComb: when comb meets the bound on
// every component the LP never runs and the result is comb's.
func TestCertificateFirstCertifiedKeepsComb(t *testing.T) {
	in := forestOf(2, gen.NestedChain(8, 2, 1), gen.NestedChain(5, 2, 1))
	res, err := SolveCertificateFirstCtx(context.Background(), in, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != AlgCombinatorial || res.ActiveSlots != res.LowerBound {
		t.Fatalf("labelled %s with %d slots and bound %d, want comb at the bound",
			res.Algorithm, res.ActiveSlots, res.LowerBound)
	}
	if res.Stats == nil || res.Stats.Counters.SimplexSolves != 0 || res.Stats.Counters.CombActivations == 0 {
		t.Fatalf("stats should show comb work and no LP: %+v", res.Stats)
	}
}

// TestCertificateFirstLPBudget: the LP budget is spent on gapped
// components in time order. Two copies of Nested32(3) each leave comb
// a gap (comb 6, nested95 5, tree bound and LP value 4); with room for
// one tableau the first copy is re-solved by the LP and the second
// keeps comb's schedule, its gap left in ActiveSlots − LowerBound.
func TestCertificateFirstLPBudget(t *testing.T) {
	part := gapfam.Nested32(3)
	in := forestOf(3, part, part)
	est := costmodel.EstimateLP(part).TableauBytes
	cb, err := SolveCombinatorial(in, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		budget int64
		alg    Algorithm
		slots  int64
	}{
		{0, AlgCombinatorial, 12},
		{est - 1, AlgCombinatorial, 12},
		{est, AlgNested95, 11},
		{2*est - 1, AlgNested95, 11},
		{2 * est, AlgNested95, 10},
	} {
		res, err := solveCertificateFirst(context.Background(), in, SolveOptions{}, tc.budget)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Schedule.Validate(in); err != nil {
			t.Fatalf("budget %d: invalid schedule: %v", tc.budget, err)
		}
		if res.Algorithm != tc.alg || res.ActiveSlots != tc.slots || res.LowerBound != 8 {
			t.Errorf("budget %d: %s with %d slots and bound %d, want %s with %d and 8",
				tc.budget, res.Algorithm, res.ActiveSlots, res.LowerBound, tc.alg, tc.slots)
		}
		if tc.slots == 11 {
			// The second copy, from t = 100000 on, is comb's.
			for tt, js := range cb.Schedule.Slots {
				if got := res.Schedule.Slots[tt]; tt >= 100000 && !slices.Equal(got, js) {
					t.Errorf("budget %d: slot %d holds %v, comb had %v", tc.budget, tt, got, js)
				}
			}
		}
	}
}

// FuzzCertificateFirst differentially checks AlgAuto's certificate-
// first solve against internal/exact on small random nested forests of
// one to three components: the lower bound (tree bound, raised to the
// LP value where the LP ran) never exceeds OPT, auto never does worse
// than comb or nested95 on the same instance, a certified result (slots
// equal to the bound) is optimal, and the schedule validates. With no
// LP budget the result is comb's, its bound still at most OPT. Run via
// `make fuzz-smoke` (and CI).
func FuzzCertificateFirst(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(6), uint8(2), false)
	f.Add(int64(7), uint8(2), uint8(4), uint8(3), false)
	f.Add(int64(42), uint8(1), uint8(5), uint8(1), true)
	f.Add(int64(-3), uint8(2), uint8(255), uint8(0), false)
	// Two components where comb leaves a gap, the LP runs and its value
	// lifts the bound above the tree bound (to 22 and 21 slots, OPT).
	f.Add(int64(20), uint8(1), uint8(6), uint8(1), false)
	f.Add(int64(73), uint8(1), uint8(6), uint8(1), false)
	f.Fuzz(func(t *testing.T, seed int64, comps, n, g uint8, unit bool) {
		capg := 1 + int64(g)%3
		rng := rand.New(rand.NewSource(seed))
		parts := make([]*Instance, 1+int(comps)%3)
		for k := range parts {
			params := gen.DefaultLaminar(2+int(n)%7, capg) // 2..8 jobs: the exact oracle stays cheap
			if unit {
				parts[k] = gen.RandomUnitLaminar(rng, params)
			} else {
				parts[k] = gen.RandomLaminar(rng, params)
			}
		}
		in := forestOf(capg, parts...)

		res, err := Solve(in, AlgAuto)
		if err != nil {
			t.Fatalf("auto: %v\n%v", err, in.Jobs)
		}
		if res.Route == nil || res.Route.Reason != RouteReasonCertificateFirst {
			t.Fatalf("auto route %+v, want certificate-first\n%v", res.Route, in.Jobs)
		}
		if err := res.Schedule.Validate(in); err != nil {
			t.Fatalf("invalid schedule: %v\n%v", err, in.Jobs)
		}
		if got := res.Schedule.NumActive(); got != res.ActiveSlots {
			t.Fatalf("schedule has %d active slots, result says %d\n%v", got, res.ActiveSlots, in.Jobs)
		}
		opt, err := exact.Opt(in)
		if err != nil {
			t.Fatalf("exact: %v\n%v", err, in.Jobs)
		}
		if res.LowerBound > opt {
			t.Fatalf("tree bound %d above OPT %d\n%v", res.LowerBound, opt, in.Jobs)
		}
		if res.ActiveSlots == res.LowerBound && res.ActiveSlots != opt {
			t.Fatalf("certified at %d but OPT is %d\n%v", res.ActiveSlots, opt, in.Jobs)
		}
		cb, err := Solve(in, AlgCombinatorial)
		if err != nil {
			t.Fatalf("comb: %v\n%v", err, in.Jobs)
		}
		lp, err := Solve(in, AlgNested95)
		if err != nil {
			t.Fatalf("nested95: %v\n%v", err, in.Jobs)
		}
		if best := min(cb.ActiveSlots, lp.ActiveSlots); res.ActiveSlots > best {
			t.Fatalf("auto %d worse than min(comb %d, nested95 %d)\n%v",
				res.ActiveSlots, cb.ActiveSlots, lp.ActiveSlots, in.Jobs)
		}
		noLP, err := solveCertificateFirst(context.Background(), in, SolveOptions{}, 0)
		if err != nil {
			t.Fatalf("auto without LP budget: %v\n%v", err, in.Jobs)
		}
		if err := noLP.Schedule.Validate(in); err != nil {
			t.Fatalf("invalid schedule without LP budget: %v\n%v", err, in.Jobs)
		}
		if noLP.Algorithm != AlgCombinatorial || noLP.ActiveSlots != cb.ActiveSlots || noLP.LowerBound > opt {
			t.Fatalf("without LP budget: %s, %d slots, bound %d; comb %d, OPT %d\n%v",
				noLP.Algorithm, noLP.ActiveSlots, noLP.LowerBound, cb.ActiveSlots, opt, in.Jobs)
		}
	})
}

// TestCertificationRates regenerates the EXPERIMENTS.md E25 table (run
// with -v): on random laminar and unit-laminar instances, g = 3, seed
// 7, 100 per size at n = 8…48, it counts the forest components comb
// certifies against the tree bound, the instances where the LP never
// runs, and the LP's wins, and sums the slots of auto, comb, nested95
// and the bound, with each solver's mean wall time. Only the
// invariants are asserted (bound ≤ auto ≤ min(comb, nested95)); the
// counts and times are reported.
func TestCertificationRates(t *testing.T) {
	if testing.Short() {
		t.Skip("table regeneration")
	}
	t.Logf("%-8s %3s %11s %11s %7s %6s %6s %8s %6s %8s %8s %8s",
		"family", "n", "comps cert", "insts cert", "LP won", "auto", "comb", "nested95", "bound", "auto ms", "comb ms", "LP ms")
	for _, family := range []string{"laminar", "unit"} {
		for n := 8; n <= 48; n += 8 {
			rng := rand.New(rand.NewSource(7))
			var comps, certComps, certInsts, lpWon int
			var autoN, combN, lpN, boundN int64
			var autoT, combT, lpT time.Duration
			const trials = 100
			for trial := 0; trial < trials; trial++ {
				params := gen.DefaultLaminar(n, 3)
				in := gen.RandomLaminar(rng, params)
				if family == "unit" {
					in = gen.RandomUnitLaminar(rng, params)
				}
				start := time.Now()
				res, err := SolveCertificateFirstCtx(context.Background(), in, SolveOptions{})
				autoT += time.Since(start)
				if err != nil {
					t.Fatal(err)
				}
				start = time.Now()
				s, rep, err := comb.Solve(in)
				combT += time.Since(start)
				if err != nil {
					t.Fatal(err)
				}
				start = time.Now()
				lp, err := SolveNested95(in, SolveOptions{})
				lpT += time.Since(start)
				if err != nil {
					t.Fatal(err)
				}
				certified := true
				for _, r := range rep.Roots {
					comps++
					if r.Active == r.Bound {
						certComps++
					} else {
						certified = false
					}
				}
				if certified {
					certInsts++
				}
				if res.Algorithm == AlgNested95 {
					lpWon++
				}
				if res.LowerBound > res.ActiveSlots || res.ActiveSlots > min(s.NumActive(), lp.ActiveSlots) {
					t.Fatalf("bound %d, auto %d, comb %d, nested95 %d\n%v",
						res.LowerBound, res.ActiveSlots, s.NumActive(), lp.ActiveSlots, in.Jobs)
				}
				autoN += res.ActiveSlots
				combN += s.NumActive()
				lpN += lp.ActiveSlots
				boundN += res.LowerBound
			}
			ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 / trials }
			t.Logf("%-8s %3d %5d/%-5d %5d/%-5d %7d %6d %6d %8d %6d %8.3f %8.3f %8.3f",
				family, n, certComps, comps, certInsts, trials, lpWon, autoN, combN, lpN, boundN,
				ms(autoT), ms(combT), ms(lpT))
		}
	}
}
