package comb

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/exact"
	"repro/internal/flowfeas"
	"repro/internal/gen"
	"repro/internal/instance"
)

// TestChainMatchesExact pins cost equality with the exact solver on
// the unit-processing deep-chain family (the shape the LP path OOMs
// on) at depths the exact solver can still handle. For p ≥ 2 the lazy
// greedy is a bounded approximation, not exact (see
// TestRandomLaminarWithinTwiceOpt), so only validity and the 2·OPT
// bound are required there.
func TestChainMatchesExact(t *testing.T) {
	for depth := 1; depth <= 14; depth++ {
		for _, g := range []int64{1, 2, 3} {
			for _, p := range []int64{1, 2} {
				in := gen.NestedChain(depth, g, p)
				s, rep, err := Solve(in)
				if err != nil {
					t.Fatalf("depth=%d g=%d p=%d: %v", depth, g, p, err)
				}
				if err := s.Validate(in); err != nil {
					t.Fatalf("depth=%d g=%d p=%d: invalid schedule: %v", depth, g, p, err)
				}
				opt, err := exact.Opt(in)
				if err != nil {
					t.Fatalf("exact: %v", err)
				}
				if p == 1 && rep.ActiveSlots != opt {
					t.Errorf("depth=%d g=%d p=1: comb=%d exact=%d", depth, g, rep.ActiveSlots, opt)
				}
				if rep.ActiveSlots > 2*opt {
					t.Errorf("depth=%d g=%d p=%d: comb=%d > 2·exact=%d", depth, g, p, rep.ActiveSlots, 2*opt)
				}
			}
		}
	}
}

// TestRandomUnitLaminarMatchesExact pins exactness on unit-processing
// nested instances — the polynomial special case of Chang, Gabow and
// Khuller that the lazy-activation greedy solves optimally.
func TestRandomUnitLaminarMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 300; i++ {
		n := 2 + rng.Intn(10)
		g := int64(1 + rng.Intn(3))
		in := gen.RandomUnitLaminar(rng, gen.DefaultLaminar(n, g))
		s, rep, err := Solve(in)
		if err != nil {
			t.Fatalf("case %d: %v\n%v", i, err, in.Jobs)
		}
		if err := s.Validate(in); err != nil {
			t.Fatalf("case %d: invalid schedule: %v", i, err)
		}
		opt, err := exact.Opt(in)
		if err != nil {
			t.Fatalf("case %d: exact: %v", i, err)
		}
		if rep.ActiveSlots != opt {
			t.Errorf("case %d: comb=%d exact=%d g=%d jobs=%v",
				i, rep.ActiveSlots, opt, in.G, in.Jobs)
		}
	}
}

// TestRandomLaminarWithinTwiceOpt bounds the general-processing case:
// always a valid schedule, never worse than 2·OPT (the Kumar–Khuller
// regime; measured over this seeded family the worst ratio is 1.6 and
// 96% of instances solve exactly).
func TestRandomLaminarWithinTwiceOpt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	equal := 0
	for i := 0; i < 300; i++ {
		n := 2 + rng.Intn(9)
		g := int64(1 + rng.Intn(3))
		in := gen.RandomLaminar(rng, gen.DefaultLaminar(n, g))
		s, rep, err := Solve(in)
		if err != nil {
			t.Fatalf("case %d: %v\n%v", i, err, in.Jobs)
		}
		if err := s.Validate(in); err != nil {
			t.Fatalf("case %d: invalid schedule: %v", i, err)
		}
		opt, err := exact.Opt(in)
		if err != nil {
			t.Fatalf("case %d: exact: %v", i, err)
		}
		if rep.ActiveSlots > 2*opt {
			t.Errorf("case %d: comb=%d > 2·exact=%d g=%d jobs=%v",
				i, rep.ActiveSlots, 2*opt, in.G, in.Jobs)
		}
		if rep.ActiveSlots == opt {
			equal++
		}
	}
	// The seed is fixed, so the quality level is deterministic; a drop
	// below 85% exact means a real algorithmic regression.
	if equal < 255 {
		t.Errorf("exact on only %d/300 seeded instances", equal)
	}
}

// TestForestMatchesExact covers the multi-root wide-forest shape used
// by the scale benchmark families.
func TestForestMatchesExact(t *testing.T) {
	in := gen.NestedForest(3, 3, 2, 2, 2)
	s, rep, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(in); err != nil {
		t.Fatal(err)
	}
	opt, err := exact.Opt(in)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ActiveSlots != opt {
		t.Errorf("comb=%d exact=%d", rep.ActiveSlots, opt)
	}
}

// TestRootEvidence: the per-root counts partition the objective, line
// up with the instance's components, and never undercut their bound.
// The bound must hold against the exact optimum of each component.
func TestRootEvidence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		var jobs []instance.Job
		for k := 0; k < 1+trial%4; k++ {
			part := gen.RandomLaminar(rng, gen.DefaultLaminar(3+trial%6, 2)).Shift(int64(k) * 500)
			jobs = append(jobs, part.Jobs...)
		}
		in := instance.MustNew(2, jobs)
		_, rep, err := Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		comps, _ := in.Components()
		if len(rep.Roots) != len(comps) {
			t.Fatalf("%d roots, %d components", len(rep.Roots), len(comps))
		}
		var sum int64
		for i, r := range rep.Roots {
			sum += r.Active
			if r.Bound > r.Active {
				t.Fatalf("root %d: bound %d above comb's %d", i, r.Bound, r.Active)
			}
			opt, err := exact.Opt(comps[i])
			if err != nil {
				t.Fatal(err)
			}
			if r.Bound > opt {
				t.Fatalf("root %d: bound %d above OPT %d\n%v", i, r.Bound, opt, comps[i].Jobs)
			}
			if h, _ := comps[i].Horizon(); h != r.Window {
				t.Fatalf("root %d window %v, component spans %v", i, r.Window, h)
			}
		}
		if sum != rep.ActiveSlots {
			t.Fatalf("root counts sum to %d, objective %d", sum, rep.ActiveSlots)
		}
	}
}

// TestFallbackPerRoot: the greedy comes up short on one root (three
// jobs that fill [0,4) at g=2 only if the p=2 job takes the slots the
// p=3 jobs leave free at both ends). Only that root falls back to the
// max-flow schedule; the other root keeps the placement it gets when
// solved alone.
func TestFallbackPerRoot(t *testing.T) {
	short := []instance.Job{
		{Processing: 3, Release: 0, Deadline: 4},
		{Processing: 2, Release: 0, Deadline: 4},
		{Processing: 3, Release: 0, Deadline: 4},
	}
	other := gen.NestedChain(6, 2, 1).Shift(100)
	in := instance.MustNew(2, append(append([]instance.Job(nil), short...), other.Jobs...))
	s, rep, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(in); err != nil {
		t.Fatal(err)
	}
	if !rep.Fallback || rep.Stats.Counters.CombFallbacks != 1 {
		t.Fatalf("fallback %v, counter %d: want one fallback", rep.Fallback, rep.Stats.Counters.CombFallbacks)
	}
	alone, _, err := Solve(other)
	if err != nil {
		t.Fatal(err)
	}
	for tm, js := range alone.Slots {
		got := s.Slots[tm]
		if len(got) != len(js) {
			t.Fatalf("slot %d: %d jobs, %d when solved alone", tm, len(got), len(js))
		}
	}
	if rep.Roots[0].Active != 4 || rep.Roots[1].Active != alone.NumActive() {
		t.Fatalf("root counts %+v, want 4 and %d", rep.Roots, alone.NumActive())
	}
}

// TestDeepChain900 is the production shape: the depth-900 chain must
// solve without the LP path and produce a flow-verified schedule.
func TestDeepChain900(t *testing.T) {
	in := gen.NestedChain(900, 2, 1)
	s, rep, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(in); err != nil {
		t.Fatal(err)
	}
	if !flowfeas.CheckSlots(in, s.ActiveSlots()) {
		t.Fatal("schedule's active slots fail the flow feasibility check")
	}
	// 900 unit jobs at g=2 need at least 450 slots; the lazy greedy
	// should hit that bound exactly on this symmetric chain.
	if rep.ActiveSlots != 450 {
		t.Errorf("active slots = %d, want 450", rep.ActiveSlots)
	}
	if rep.Depth != 900 {
		t.Errorf("depth = %d, want 900", rep.Depth)
	}
}

// TestDeterministic pins byte-identical schedules across repeat solves.
func TestDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	in := gen.RandomLaminar(rng, gen.DefaultLaminar(40, 3))
	s1, _, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if s1.String() != s2.String() {
		t.Fatalf("schedules differ:\n%s\n%s", s1, s2)
	}
}

// TestInfeasible requires a clean error, not a bogus schedule.
func TestInfeasible(t *testing.T) {
	// Three unit jobs forced into one slot at capacity 2.
	in := instance.MustNew(2, []instance.Job{
		{Processing: 1, Release: 0, Deadline: 1},
		{Processing: 1, Release: 0, Deadline: 1},
		{Processing: 1, Release: 0, Deadline: 1},
	})
	if _, _, err := Solve(in); err == nil {
		t.Fatal("want error on infeasible instance")
	}
}

// TestNonNested requires the laminar guard to fire.
func TestNonNested(t *testing.T) {
	in := instance.MustNew(2, []instance.Job{
		{Processing: 1, Release: 0, Deadline: 3},
		{Processing: 1, Release: 2, Deadline: 5},
	})
	if _, _, err := Solve(in); err == nil {
		t.Fatal("want error on crossing windows")
	}
}

// TestCanceled returns promptly with the context error.
func TestCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := gen.NestedChain(50, 2, 1)
	if _, _, err := SolveContext(ctx, in, Options{}); err == nil {
		t.Fatal("want context error")
	}
}

// TestEmpty solves the zero-job instance trivially.
func TestEmpty(t *testing.T) {
	in := &instance.Instance{G: 2}
	s, rep, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ActiveSlots != 0 || s.NumActive() != 0 {
		t.Fatalf("want empty schedule, got %d active", rep.ActiveSlots)
	}
}

func TestPredSet(t *testing.T) {
	b := newPredSet(1000)
	if got := b.pred(999); got != -1 {
		t.Fatalf("empty pred = %d", got)
	}
	b.set(5)
	b.set(64)
	b.set(700)
	for _, tc := range []struct{ q, want int }{
		{999, 700}, {700, 700}, {699, 64}, {64, 64}, {63, 5}, {5, 5}, {4, -1}, {0, -1},
	} {
		if got := b.pred(tc.q); got != tc.want {
			t.Errorf("pred(%d) = %d want %d", tc.q, got, tc.want)
		}
	}
	b.clear(64)
	if got := b.pred(699); got != 5 {
		t.Errorf("pred(699) after clear = %d want 5", got)
	}
}

func TestLeftDSU(t *testing.T) {
	d := newLeftDSU(10)
	if got := d.find(9); got != 9 {
		t.Fatalf("find(9) = %d", got)
	}
	d.remove(9)
	d.remove(8)
	if got := d.find(9); got != 7 {
		t.Fatalf("find(9) = %d want 7", got)
	}
	for i := 0; i <= 7; i++ {
		d.remove(d.find(7))
	}
	if got := d.find(9); got != -1 {
		t.Fatalf("find(9) = %d want -1", got)
	}
}
