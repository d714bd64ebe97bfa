package greedy

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/flowfeas"
	"repro/internal/gen"
	"repro/internal/instance"
)

// minimalFeasibleDense is the slot-by-slot scan MinimalFeasible
// replaces: one fresh slot-indexed max flow per candidate slot. It is
// the reference the run-based scan must reproduce exactly.
func minimalFeasibleDense(in *instance.Instance, order Order) (Result, error) {
	slots := in.SortedSlots()
	if !flowfeas.CheckSlots(in, slots) {
		return Result{}, fmt.Errorf("greedy: instance infeasible")
	}
	open := make([]bool, len(slots))
	for i := range open {
		open[i] = true
	}
	idx := make([]int, len(slots))
	for i := range idx {
		idx[i] = i
	}
	if order == RightToLeft {
		sort.Sort(sort.Reverse(sort.IntSlice(idx)))
	}
	for _, k := range idx {
		open[k] = false
		if !flowfeas.CheckSlots(in, collect(slots, open)) {
			open[k] = true
		}
	}
	final := collect(slots, open)
	s, err := flowfeas.ScheduleOnSlots(in, final)
	if err != nil {
		return Result{}, fmt.Errorf("greedy: internal: %w", err)
	}
	return Result{Schedule: s, Open: final}, nil
}

func collect(slots []int64, open []bool) []int64 {
	out := make([]int64, 0, len(slots))
	for i, b := range open {
		if b {
			out = append(out, slots[i])
		}
	}
	return out
}

// scaled multiplies every release, deadline and processing time by k:
// runs grow k-fold while their number stays the same.
func scaled(in *instance.Instance, k int64) *instance.Instance {
	jobs := make([]instance.Job, len(in.Jobs))
	for i, j := range in.Jobs {
		jobs[i] = instance.Job{Processing: k * j.Processing, Release: k * j.Release, Deadline: k * j.Deadline}
	}
	return instance.MustNew(in.G, jobs)
}

// sameResult fails unless the run scan and the dense reference agree
// slot for slot, and the schedule validates.
func sameResult(t *testing.T, in *instance.Instance, order Order) {
	t.Helper()
	want, err := minimalFeasibleDense(in, order)
	if err != nil {
		t.Fatalf("dense: %v\n%v", err, in.Jobs)
	}
	got, err := MinimalFeasible(in, order)
	if err != nil {
		t.Fatalf("runs: %v\n%v", err, in.Jobs)
	}
	if !slices.Equal(got.Open, want.Open) {
		t.Fatalf("order %v: open %v, dense %v\n%v", order, got.Open, want.Open, in.Jobs)
	}
	if err := got.Schedule.Validate(in); err != nil {
		t.Fatalf("order %v: %v\n%v", order, err, in.Jobs)
	}
	if len(got.Schedule.Slots) != len(want.Schedule.Slots) {
		t.Fatalf("order %v: schedule has %d slots, dense %d", order, len(got.Schedule.Slots), len(want.Schedule.Slots))
	}
	for slot, js := range want.Schedule.Slots {
		if !slices.Equal(got.Schedule.Slots[slot], js) {
			t.Fatalf("order %v: slot %d runs %v, dense %v", order, slot, got.Schedule.Slots[slot], js)
		}
	}
}

// TestRunsMatchDense: on general instances at time scales 1, 4 and 16,
// both orders close exactly the slots the dense scan closes.
func TestRunsMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		base := gen.RandomGeneral(rng, gen.DefaultGeneral(4+rng.Intn(5), 1+rng.Int63n(3)))
		for _, k := range []int64{1, 4, 16} {
			in := scaled(base, k)
			for _, order := range []Order{LeftToRight, RightToLeft} {
				sameResult(t, in, order)
			}
		}
	}
	for trial := 0; trial < 40; trial++ {
		in := randomInstance(rng)
		for _, order := range []Order{LeftToRight, RightToLeft} {
			sameResult(t, in, order)
		}
	}
}

// TestRunsGapsAndEmpty: uncovered gaps between windows form no run, and
// an instance without jobs needs no slots.
func TestRunsGapsAndEmpty(t *testing.T) {
	in := mk(t, 2,
		instance.Job{Processing: 2, Release: 0, Deadline: 5},
		instance.Job{Processing: 1, Release: 3, Deadline: 9},
		instance.Job{Processing: 3, Release: 20, Deadline: 30},
	)
	for _, order := range []Order{LeftToRight, RightToLeft} {
		sameResult(t, in, order)
	}
	empty := mk(t, 1)
	res, err := MinimalFeasible(empty, LeftToRight)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Open) != 0 || res.Schedule.NumActive() != 0 {
		t.Fatalf("empty instance: open %v", res.Open)
	}
}

// TestMinimalFeasibleCtxCanceled: a canceled context stops the scan
// with ctx's error rather than a schedule.
func TestMinimalFeasibleCtxCanceled(t *testing.T) {
	in := scaled(gen.RandomGeneral(rand.New(rand.NewSource(3)), gen.DefaultGeneral(12, 2)), 16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MinimalFeasibleCtx(ctx, in, LeftToRight); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// FuzzGreedyRuns differentially checks the run scan against the dense
// slot-by-slot reference on small general instances at a random time
// scale: for both orders the open sets and the schedules must be equal
// and the schedule must validate. Run via `make fuzz-smoke` (and CI).
func FuzzGreedyRuns(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(1), uint8(0))
	f.Add(int64(7), uint8(10), uint8(2), uint8(3))
	f.Add(int64(42), uint8(3), uint8(0), uint8(15))
	f.Add(int64(-9), uint8(255), uint8(2), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, n, g, scale uint8) {
		jobs := 1 + int(n)%10
		rng := rand.New(rand.NewSource(seed))
		in := scaled(gen.RandomGeneral(rng, gen.DefaultGeneral(jobs, 1+int64(g)%3)), 1+int64(scale)%16)
		for _, order := range []Order{LeftToRight, RightToLeft} {
			sameResult(t, in, order)
		}
	})
}
