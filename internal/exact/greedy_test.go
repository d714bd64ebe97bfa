package exact

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/flowfeas"
	"repro/internal/instance"
	"repro/internal/lamtree"
)

// greedyCountsLinear is the one-slot-at-a-time descent greedyCounts
// replaced: lower each node's count while the vector stays feasible.
func greedyCountsLinear(t *lamtree.Tree, start []int64) []int64 {
	counts := slices.Clone(start)
	for i := range counts {
		for counts[i] > 0 {
			counts[i]--
			if !flowfeas.CheckNodeCounts(t, counts) {
				counts[i]++
				break
			}
		}
	}
	return counts
}

// TestGreedyCountsMatchesLinearDescent pins the binary search per node
// to the linear descent's count vector, on random laminar instances
// with every time scaled up so nodes hold long slot ranges.
func TestGreedyCountsMatchesLinearDescent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	compared := 0
	for trial := 0; trial < 200; trial++ {
		in := randomLaminar(rng, 2+trial%7, 12)
		k := int64(1 + trial%5)
		jobs := slices.Clone(in.Jobs)
		for i := range jobs {
			jobs[i].Release *= k
			jobs[i].Deadline *= k
			jobs[i].Processing *= 1 + int64(trial%3)
		}
		in, err := instance.New(in.G, jobs)
		if err != nil {
			continue // scaled processing overflows a window
		}
		tr, err := lamtree.Build(in)
		if err != nil {
			t.Fatal(err)
		}
		full := make([]int64, tr.M())
		for i := range full {
			full[i] = tr.Nodes[i].L
		}
		if !flowfeas.CheckNodeCounts(tr, full) {
			continue
		}
		compared++
		if got, want := greedyCounts(tr, full, nil), greedyCountsLinear(tr, full); !slices.Equal(got, want) {
			t.Fatalf("trial %d: counts %v, linear descent %v\n%v", trial, got, want, in.Jobs)
		}
	}
	if compared < 150 {
		t.Fatalf("only %d of 200 instances compared", compared)
	}
}
