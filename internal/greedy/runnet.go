package greedy

import (
	"context"
	"slices"

	"repro/internal/instance"
	"repro/internal/maxflow"
)

// run is a block [a,b) of slots between two consecutive distinct
// release/deadline values that some job window covers. Every job
// window either contains the whole run or misses it, so its slots are
// interchangeable.
type run struct{ a, b int64 }

// runNet is the run-indexed feasibility network, built once per solve
// and re-probed with different open counts:
// source → job (p_j), job → run (open count, one unit per open slot),
// run → sink (g × open count). A job can use at most one unit per slot
// and a slot at most g units, so with interchangeable slots these
// aggregate capacities admit exactly the flows the slot-indexed
// network does (McNaughton's wrap-around places them slot by slot).
type runNet struct {
	g    *maxflow.Graph
	runs []run
	open []int64 // open slots per run, as last applied
	// sinkEdges[k]: run k → sink; jobEdges[k]: every job → run k edge.
	sinkEdges []maxflow.EdgeRef
	jobEdges  [][]maxflow.EdgeRef
	gcap      int64
	want      int64 // Σ p_j
}

// newRunNet builds the network for in with every run fully open.
func newRunNet(in *instance.Instance) *runNet {
	bps := make([]int64, 0, 2*in.N())
	for _, j := range in.Jobs {
		bps = append(bps, j.Release, j.Deadline)
	}
	slices.Sort(bps)
	bps = slices.Compact(bps)
	idx := func(t int64) int {
		i, _ := slices.BinarySearch(bps, t)
		return i
	}
	// cover[i] counts the windows covering block [bps[i], bps[i+1]).
	cover := make([]int, len(bps))
	for _, j := range in.Jobs {
		cover[idx(j.Release)]++
		cover[idx(j.Deadline)]--
	}
	// runOf[i] is the run of block i, or -1 when no window covers it.
	runOf := make([]int, len(bps))
	rn := &runNet{gcap: in.G}
	depth := 0
	for i := range bps {
		depth += cover[i]
		runOf[i] = -1
		if depth > 0 {
			runOf[i] = len(rn.runs)
			rn.runs = append(rn.runs, run{bps[i], bps[i+1]})
		}
	}
	m := len(rn.runs)
	n := in.N()
	rn.open = make([]int64, m)
	rn.sinkEdges = make([]maxflow.EdgeRef, m)
	rn.jobEdges = make([][]maxflow.EdgeRef, m)
	for _, j := range in.Jobs {
		rn.want += j.Processing
	}
	// Node layout: 0 = source, 1 = sink, 2..2+n-1 jobs, then runs.
	rn.g = maxflow.New(2 + n + m)
	for k, r := range rn.runs {
		rn.open[k] = r.b - r.a
		rn.sinkEdges[k] = rn.g.AddEdge(2+n+k, 1, rn.sinkCap(rn.open[k]))
	}
	for _, j := range in.Jobs {
		rn.g.AddEdge(0, 2+j.ID, j.Processing)
		for i := idx(j.Release); bps[i] < j.Deadline; i++ {
			k := runOf[i]
			rn.jobEdges[k] = append(rn.jobEdges[k], rn.g.AddEdge(2+j.ID, 2+n+k, rn.open[k]))
		}
	}
	return rn
}

// sinkCap is g × open, capped at Σ p_j (no run can absorb more), which
// keeps the product clear of overflow for any g and run length.
func (rn *runNet) sinkCap(open int64) int64 {
	if open > 0 && rn.gcap > rn.want/open {
		return rn.want
	}
	return rn.gcap * open
}

// setOpen applies an open count to run k's capacities.
func (rn *runNet) setOpen(k int, open int64) {
	if rn.open[k] == open {
		return
	}
	rn.open[k] = open
	rn.g.SetCapacity(rn.sinkEdges[k], rn.sinkCap(open))
	for _, ref := range rn.jobEdges[k] {
		rn.g.SetCapacity(ref, open)
	}
}

// feasible reports whether the current open counts schedule every job,
// recomputing the flow from scratch.
func (rn *runNet) feasible(ctx context.Context) (bool, error) {
	rn.g.Reset()
	got, err := rn.g.RunCtx(ctx, 0, 1)
	if err != nil {
		return false, err
	}
	return got == rn.want, nil
}
