package activetime

import (
	"runtime"
	"testing"

	"repro/internal/costmodel"
)

// TestSolveBytesTracksAllocation pins the constants behind
// costmodel.Profile.SolveBytes: around one solve of a single job with a
// 10⁶-slot window (p = 1, the per-slot terms) and one with p = 10⁶ (the
// per-unit terms), the estimate must be within 2× of the bytes the
// solve actually allocates. The p = 10⁶ shape runs on the algorithms
// whose per-unit work differs most (LP and comb placement, the greedy
// orders' final slot network, all-open's slot and unit terms together,
// exact's count-vector schedule).
func TestSolveBytesTracksAllocation(t *testing.T) {
	for _, tc := range []struct {
		p, d int64
		algs []Algorithm
	}{
		{1, 1_000_000, Algorithms()},
		{1_000_000, 1_000_000, []Algorithm{AlgAuto, AlgCombinatorial, AlgNested95, AlgGreedyMinimal, AlgAllOpen, AlgExact}},
	} {
		in, err := NewInstance(1, []Job{{Processing: tc.p, Release: 0, Deadline: tc.d}})
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range tc.algs {
			est := costmodel.NewProfile(in).SolveBytes(string(alg))
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if _, err := Solve(in, alg); err != nil {
				t.Fatalf("p=%d d=%d %s: %v", tc.p, tc.d, alg, err)
			}
			runtime.ReadMemStats(&after)
			got := int64(after.TotalAlloc - before.TotalAlloc)
			t.Logf("p=%d d=%d %-14s estimate %11d allocated %11d", tc.p, tc.d, alg, est, got)
			// Below 1 MiB the fixed overheads dominate both figures.
			if max(est, got) < 1<<20 {
				continue
			}
			if est > 2*got || got > 2*est {
				t.Errorf("p=%d d=%d %s: estimate %d bytes, allocated %d (want within 2×)", tc.p, tc.d, alg, est, got)
			}
		}
	}
}
