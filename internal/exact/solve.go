package exact

import (
	"context"
	"fmt"

	"repro/internal/flowfeas"
	"repro/internal/instance"
	"repro/internal/lamtree"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// SolveNested computes the exact optimum for the instance represented
// by the laminar tree t: the minimum number of open slots, together
// with an optimal per-node open-count vector. Within a node's
// exclusive region slots are interchangeable, so searching over count
// vectors is exhaustive. Branch and bound prunes on per-subtree
// feasibility, per-subtree volume/longest-job lower bounds, and the
// best solution found so far.
func SolveNested(t *lamtree.Tree) (int64, []int64, error) {
	return SolveNestedRec(t, nil)
}

// SolveNestedRec is SolveNested reporting branch-and-bound node counts
// and max-flow operation counts to rec (nil disables reporting).
func SolveNestedRec(t *lamtree.Tree, rec *metrics.Recorder) (int64, []int64, error) {
	return SolveNestedTrace(t, rec, nil)
}

// SolveNestedTrace is SolveNestedRec recording a "bb_nested" trace
// span (with expanded/pruned node counts) under sp; a nil span
// disables tracing.
func SolveNestedTrace(t *lamtree.Tree, rec *metrics.Recorder, sp *trace.Span) (int64, []int64, error) {
	bsp := sp.StartChild("bb_nested", trace.Int("tree_nodes", int64(t.M())))
	defer bsp.End()
	m := t.M()
	full := make([]int64, m)
	for i := 0; i < m; i++ {
		full[i] = t.Nodes[i].L
	}
	if !flowfeas.CheckNodeCountsRec(t, full, rec) {
		return 0, nil, fmt.Errorf("exact: instance infeasible even with all slots open")
	}

	s := &nestedSearch{t: t, minSub: subtreeLowerBounds(t), rec: rec}
	s.order = t.PostOrder()
	s.counts = make([]int64, m)

	// Initial incumbent: a greedily minimized count vector (remove
	// slots node by node while feasibility holds). Minimal feasible
	// solutions are 3-approximations, which makes the incumbent a far
	// stronger pruner than all-open.
	s.best = greedyCounts(t, full, rec)
	s.bestSum = 0
	for _, v := range s.best {
		s.bestSum += v
	}

	var rootLB int64
	for _, r := range t.Roots {
		rootLB += s.minSub[r]
	}
	s.rootLB = rootLB
	s.dfs(0, 0)
	if metrics.Active(rec) {
		rec.BBNodesExpanded.Add(s.expanded)
		rec.BBNodesPruned.Add(s.pruned)
	}
	bsp.SetAttr(trace.Int("bb_nodes_expanded", s.expanded), trace.Int("bb_nodes_pruned", s.pruned))

	return s.bestSum, s.best, nil
}

type nestedSearch struct {
	t       *lamtree.Tree
	order   []int // post-order node IDs
	minSub  []int64
	counts  []int64
	best    []int64
	bestSum int64
	rootLB  int64
	rec     *metrics.Recorder
	// expanded/pruned count branch decisions locally (the search is
	// single-threaded); published to rec once at the end.
	expanded int64
	pruned   int64
}

// greedyCounts minimizes a feasible count vector node by node: each
// node's count drops to the smallest value that keeps the vector
// feasible with the other counts fixed. The result is minimal and thus
// a 3-approximation, ideal as a branch-and-bound incumbent.
// Feasibility is monotone in one node's count (more open slots never
// hurt), so a binary search finds the count the one-slot-at-a-time
// descent stops at, in O(log L) max flows per node instead of O(L).
func greedyCounts(t *lamtree.Tree, start []int64, rec *metrics.Recorder) []int64 {
	counts := make([]int64, len(start))
	copy(counts, start)
	for i := range counts {
		// counts[i] = hi is feasible; find the least feasible count.
		lo, hi := int64(0), counts[i]
		for lo < hi {
			mid := lo + (hi-lo)/2
			counts[i] = mid
			if flowfeas.CheckNodeCountsRec(t, counts, rec) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		counts[i] = hi
	}
	return counts
}

// dfs assigns a count to order[k] with sum the partial objective.
func (s *nestedSearch) dfs(k int, sum int64) {
	if s.bestSum == s.rootLB {
		return // incumbent already matches the global lower bound
	}
	if k == len(s.order) {
		if sum < s.bestSum {
			s.bestSum = sum
			copy(s.best, s.counts)
		}
		return
	}
	i := s.order[k]
	n := &s.t.Nodes[i]
	// Try larger counts first: feasible completions are found sooner,
	// and the incumbent then prunes small-count dead ends. The counts
	// at or above bestSum−sum are pruned by the incumbent before any
	// of them could lower it, so they are counted in one step rather
	// than walked: the loop costs O(bestSum), not O(L), on long windows.
	c := n.L
	if skip := min(c-(s.bestSum-sum)+1, c+1); skip > 0 {
		s.expanded += skip
		s.pruned += skip
		c -= skip
	}
	for ; c >= 0; c-- {
		s.counts[i] = c
		newSum := sum + c
		s.expanded++
		if newSum >= s.bestSum {
			s.pruned++
			continue
		}
		// Subtree of i completes at this step (post-order).
		if !s.subtreeOK(i) {
			s.pruned++
			continue
		}
		s.dfs(k+1, newSum)
	}
	s.counts[i] = 0
}

// subtreeOK verifies the two subtree-local prune conditions for node
// i: the count sum meets the subtree lower bound and the subtree's own
// jobs fit into the subtree's open slots.
func (s *nestedSearch) subtreeOK(i int) bool {
	var sub int64
	for _, d := range s.t.Des(i) {
		sub += s.counts[d]
	}
	if sub < s.minSub[i] {
		return false
	}
	return subtreeFeasible(s.t, i, s.counts, s.rec)
}

// subtreeLowerBounds computes, for each node, a lower bound on the
// number of open slots any feasible solution places inside its
// subtree: the max of the volume bound ceil(vol/g), the longest job,
// and the sum of the children's bounds (children regions are
// disjoint).
func subtreeLowerBounds(t *lamtree.Tree) []int64 {
	m := t.M()
	lb := make([]int64, m)
	vol := make([]int64, m)
	longest := make([]int64, m)
	for _, i := range t.PostOrder() {
		var childSum int64
		for _, c := range t.Nodes[i].Children {
			vol[i] += vol[c]
			if longest[c] > longest[i] {
				longest[i] = longest[c]
			}
			childSum += lb[c]
		}
		for _, j := range t.Nodes[i].Jobs {
			vol[i] += t.Jobs[j].Processing
			if t.Jobs[j].Processing > longest[i] {
				longest[i] = t.Jobs[j].Processing
			}
		}
		lb[i] = (vol[i] + t.G - 1) / t.G
		if longest[i] > lb[i] {
			lb[i] = longest[i]
		}
		if childSum > lb[i] {
			lb[i] = childSum
		}
	}
	return lb
}

// SolveGeneral computes the exact optimum of an arbitrary (not
// necessarily nested) instance by branch and bound over the set of
// candidate slots. Intended for small horizons (≈ 25 candidate slots
// or fewer); nested instances should prefer SolveNested.
func SolveGeneral(in *instance.Instance) (int64, []int64, error) {
	return SolveGeneralRec(in, nil)
}

// SolveGeneralRec is SolveGeneral reporting branch-and-bound node
// counts and max-flow operation counts to rec (nil disables
// reporting).
func SolveGeneralRec(in *instance.Instance, rec *metrics.Recorder) (int64, []int64, error) {
	return SolveGeneralTrace(context.Background(), in, rec, nil)
}

// SolveGeneralTrace is SolveGeneralRec with cooperative cancellation
// and a "bb_general" trace span (with expanded/pruned node counts)
// under sp; a nil span disables tracing. ctx is checked once per
// branch-and-bound node (each node already pays a max flow), and a
// canceled search returns ctx.Err().
func SolveGeneralTrace(ctx context.Context, in *instance.Instance, rec *metrics.Recorder, sp *trace.Span) (int64, []int64, error) {
	bsp := sp.StartChild("bb_general", trace.Int("candidate_slots", int64(len(in.SortedSlots()))))
	defer bsp.End()
	slots := in.SortedSlots()
	if !flowfeas.CheckSlotsRec(in, slots, rec) {
		return 0, nil, fmt.Errorf("exact: instance infeasible even with all slots open")
	}
	s := &generalSearch{ctx: ctx, in: in, slots: slots, lb: in.LowerBound(), rec: rec}
	s.open = make([]bool, len(slots))
	for i := range s.open {
		s.open[i] = true
	}
	s.best = append([]bool(nil), s.open...)
	s.bestSum = int64(len(slots))
	s.dfs(0, 0)
	if metrics.Active(rec) {
		rec.BBNodesExpanded.Add(s.expanded)
		rec.BBNodesPruned.Add(s.pruned)
	}
	bsp.SetAttr(trace.Int("bb_nodes_expanded", s.expanded), trace.Int("bb_nodes_pruned", s.pruned))
	if s.err != nil {
		return 0, nil, s.err
	}

	var out []int64
	for i, b := range s.best {
		if b {
			out = append(out, slots[i])
		}
	}
	return s.bestSum, out, nil
}

type generalSearch struct {
	ctx      context.Context
	err      error // ctx's error once the search is canceled
	in       *instance.Instance
	slots    []int64
	open     []bool
	best     []bool
	bestSum  int64
	lb       int64
	rec      *metrics.Recorder
	expanded int64
	pruned   int64
}

// dfs decides slot k. Slots k.. are currently open; closing is tried
// first so small solutions are found early. After a closing decision
// the remaining-all-open relaxation is flow-checked (closing more
// slots never restores feasibility). A canceled context unwinds the
// search without expanding further nodes.
func (s *generalSearch) dfs(k int, opened int64) {
	if s.err = s.ctx.Err(); s.err != nil {
		return
	}
	s.expanded++
	if s.bestSum == s.lb {
		s.pruned++
		return
	}
	if opened >= s.bestSum {
		s.pruned++
		return
	}
	if k == len(s.slots) {
		s.bestSum = opened
		copy(s.best, s.open)
		return
	}
	// Branch 1: close slot k.
	s.open[k] = false
	if s.feasibleRelaxed() {
		s.dfs(k+1, opened)
	} else {
		s.pruned++
	}
	// Branch 2: open slot k.
	s.open[k] = true
	s.dfs(k+1, opened+1)
}

func (s *generalSearch) feasibleRelaxed() bool {
	var open []int64
	for i, b := range s.open {
		if b {
			open = append(open, s.slots[i])
		}
	}
	return flowfeas.CheckSlotsRec(s.in, open, s.rec)
}

// Opt computes the exact optimum of an instance, dispatching to the
// nested solver when windows are laminar and to the general solver
// otherwise. It returns only the optimal objective value.
func Opt(in *instance.Instance) (int64, error) {
	if in.Nested() {
		var total int64
		comps, _ := in.Components()
		for _, c := range comps {
			t, err := lamtree.Build(c)
			if err != nil {
				return 0, err
			}
			v, _, err := SolveNested(t)
			if err != nil {
				return 0, err
			}
			total += v
		}
		return total, nil
	}
	v, _, err := SolveGeneral(in)
	return v, err
}
