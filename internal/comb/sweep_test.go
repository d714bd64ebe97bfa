package comb

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/instance"
	"repro/internal/lamtree"
)

// placed builds the placement state the sweep starts from: lazy
// activation, plus the max-flow fallback on short roots. ok is false
// when the instance is infeasible.
func placed(t *testing.T, in *instance.Instance) (*state, bool) {
	t.Helper()
	tr, err := lamtree.Build(in)
	if err != nil {
		t.Fatal(err)
	}
	st, err := newState(in, tr)
	if err != nil {
		t.Fatal(err)
	}
	short, err := st.place(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if short && st.fallback() != nil {
		return nil, false
	}
	return st, true
}

// sameState fails unless the two states hold the same placement, slot
// list order and job slot list order included.
func sameState(t *testing.T, what string, got, want *state) {
	t.Helper()
	if !slices.Equal(got.load, want.load) {
		t.Fatalf("%s: load %v, reference %v", what, got.load, want.load)
	}
	if got.deactivated != want.deactivated {
		t.Fatalf("%s: %d deactivated, reference %d", what, got.deactivated, want.deactivated)
	}
	for si := range got.slotJobs {
		if !slices.Equal(got.slotJobs[si], want.slotJobs[si]) {
			t.Fatalf("%s: slot %d jobs %v, reference %v", what, si, got.slotJobs[si], want.slotJobs[si])
		}
	}
	for ji := range got.jobSlots {
		if !slices.Equal(got.jobSlots[ji], want.jobSlots[ji]) {
			t.Fatalf("%s: job %d slots %v, reference %v", what, ji, got.jobSlots[ji], want.jobSlots[ji])
		}
	}
}

// sweepInstance is a seeded laminar forest: up to three random roots
// with every time scaled by scale, so that jobs hold long slot lists,
// optionally preceded by a root the greedy comes up short on (the
// three jobs of TestFallbackPerRoot), which exercises the fallback.
func sweepInstance(seed int64, n, g uint8, scale uint8, unit, short bool) *instance.Instance {
	rng := rand.New(rand.NewSource(seed))
	capg := 1 + int64(g)%4
	k := int64(1 + scale%8)
	var jobs []instance.Job
	if short && capg == 2 {
		jobs = append(jobs,
			instance.Job{Processing: 3, Release: 0, Deadline: 4},
			instance.Job{Processing: 2, Release: 0, Deadline: 4},
			instance.Job{Processing: 3, Release: 0, Deadline: 4})
	}
	for r := 0; r <= int(n)%3; r++ {
		params := gen.DefaultLaminar(2+int(n)%14, capg)
		part := gen.RandomLaminar(rng, params)
		if unit {
			part = gen.RandomUnitLaminar(rng, params)
		}
		for _, j := range part.Jobs {
			j.Release = 10 + int64(r)*1000 + k*j.Release
			j.Deadline = 10 + int64(r)*1000 + k*j.Deadline
			j.Processing *= k
			jobs = append(jobs, j)
		}
	}
	return instance.MustNew(capg, jobs)
}

// FuzzSweepMatchesReference checks the counting-sort deactivation
// sweep, its O(g) jobHolds and the offset-walking schedule extraction
// against the sort.Slice / job-slot-scan versions they replaced
// (ref_test.go): from the same placement, both sweeps must leave the
// same load, slot job lists and job slot lists, and both extractions
// the same schedule and wire bytes. It covers g = 1, multi-root
// forests, fallback roots, and a raised-g warm resume of the result.
// Run via `make fuzz-smoke` (and CI).
func FuzzSweepMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(1), uint8(0), true, false)
	f.Add(int64(7), uint8(12), uint8(2), uint8(3), false, false)
	f.Add(int64(99), uint8(5), uint8(0), uint8(7), false, true)
	f.Add(int64(42), uint8(13), uint8(5), uint8(15), false, true)
	f.Add(int64(-3), uint8(255), uint8(3), uint8(1), true, true)
	f.Fuzz(func(t *testing.T, seed int64, n, g, scale uint8, unit, short bool) {
		checkSweep(t, sweepInstance(seed, n, g, scale, unit, short), seed)
	})
}

// TestSweepMatchesReference runs the fuzz target's check over a fixed
// seed range and requires that it reached the fallback and closed
// slots in both sweeps.
func TestSweepMatchesReference(t *testing.T) {
	var fallbacks, closed, closedRaised int
	for seed := int64(0); seed < 300; seed++ {
		in := sweepInstance(seed, uint8(seed*7), uint8(seed), uint8(seed*3), seed%3 == 0, seed%4 == 2)
		fb, d, dRaised := checkSweep(t, in, seed)
		fallbacks += fb
		closed += min(d, 1)
		closedRaised += min(dRaised, 1)
	}
	if fallbacks == 0 || closed == 0 || closedRaised == 0 {
		t.Fatalf("coverage: %d fallbacks, %d instances closed slots, %d after raising g",
			fallbacks, closed, closedRaised)
	}
}

// checkSweep compares the production sweep and extraction with the
// reference on one instance and returns whether the placement fell
// back, and the slots each sweep (as placed, then at g+1) closed.
func checkSweep(t *testing.T, in *instance.Instance, seed int64) (fallback, closed, closedRaised int) {
	t.Helper()
	got, ok := placed(t, in)
	if !ok {
		return 0, 0, 0
	}
	if got.short != nil {
		fallback = 1
	}
	want, _ := placed(t, in)
	sameState(t, "placement", got, want)

	order := rand.New(rand.NewSource(seed)).Perm(in.N())
	orderRef := slices.Clone(order)
	innermostOrder(in, order)
	innermostOrderRef(in, orderRef)
	if !slices.Equal(order, orderRef) {
		t.Fatalf("innermost order %v, reference %v", order, orderRef)
	}

	ctx := context.Background()
	if err := got.deactivate(ctx); err != nil {
		t.Fatal(err)
	}
	if err := want.deactivateRef(ctx); err != nil {
		t.Fatal(err)
	}
	sameState(t, "sweep", got, want)
	s, sRef := got.schedule(), want.scheduleRef()
	if err := s.Validate(in); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	if !bytes.Equal(s.AppendJSON(nil), sRef.AppendJSON(nil)) || len(s.Slots) != len(sRef.Slots) {
		t.Fatalf("schedule\n%v\nreference\n%v", s, sRef)
	}
	for tm, js := range sRef.Slots {
		if !slices.Equal(s.Slots[tm], js) {
			t.Fatalf("slot %d: jobs %v, reference %v", tm, s.Slots[tm], js)
		}
	}

	// Resume the result at g+1 and sweep again: loads now sit below
	// g everywhere, so every slot is a candidate target.
	w := got.captureWarm()
	raised := &instance.Instance{G: in.G + 1, Jobs: in.Jobs}
	got2, err := w.restore(raised, nil)
	if err != nil {
		t.Fatal(err)
	}
	want2, _ := w.restore(raised, nil)
	if err := got2.deactivate(ctx); err != nil {
		t.Fatal(err)
	}
	if err := want2.deactivateRef(ctx); err != nil {
		t.Fatal(err)
	}
	sameState(t, "raised-g sweep", got2, want2)
	if !bytes.Equal(got2.schedule().AppendJSON(nil), want2.scheduleRef().AppendJSON(nil)) {
		t.Fatal("raised-g schedules differ")
	}
	return fallback, int(got.deactivated), int(got2.deactivated)
}
