// Package flowfeas answers feasibility questions by maximum flow, the
// standard tool for active-time scheduling (paper §1): given a set of
// active slots, all jobs fit if and only if a bipartite flow network
// saturates every job's processing demand. Two network shapes are
// provided: slot-indexed (general instances) and node-indexed over a
// laminar tree (the network H of Lemma 4.1).
package flowfeas

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/instance"
	"repro/internal/lamtree"
	"repro/internal/maxflow"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// CheckSlots reports whether every job of in can be fully scheduled
// using only the given open slots (duplicates in open are ignored).
func CheckSlots(in *instance.Instance, open []int64) bool {
	return CheckSlotsRec(in, open, nil)
}

// CheckSlotsRec is CheckSlots reporting max-flow operation counts to
// rec (nil disables reporting).
func CheckSlotsRec(in *instance.Instance, open []int64, rec *metrics.Recorder) bool {
	ok, _ := CheckSlotsCtx(context.Background(), in, open, rec)
	return ok
}

// CheckSlotsCtx is CheckSlotsRec with cooperative cancellation: ctx is
// checked once per max-flow BFS phase, and a canceled check returns
// false with ctx's error.
func CheckSlotsCtx(ctx context.Context, in *instance.Instance, open []int64, rec *metrics.Recorder) (bool, error) {
	_, ok, err := runSlotFlow(ctx, in, open, rec)
	return ok, err
}

// ScheduleOnSlots builds a concrete schedule using only the open
// slots; it returns an error when the slot set is infeasible.
func ScheduleOnSlots(in *instance.Instance, open []int64) (*sched.Schedule, error) {
	net, ok, _ := runSlotFlow(context.Background(), in, open, nil)
	if !ok {
		return nil, fmt.Errorf("flowfeas: slot set of size %d infeasible", len(net.slots))
	}
	out := sched.New(in.G)
	for jID, edges := range net.jobSlotEdges {
		for k, ref := range edges {
			if net.g.Flow(ref) > 0 {
				out.Assign(net.slots[net.jobLo[jID]+k], jID)
			}
		}
	}
	if err := out.Validate(in); err != nil {
		return nil, fmt.Errorf("flowfeas: internal: extracted schedule invalid: %w", err)
	}
	return out, nil
}

type slotNet struct {
	g            *maxflow.Graph
	slots        []int64
	jobSlotEdges [][]maxflow.EdgeRef // per job, edges to its usable slots
	jobLo        []int               // per job, the index in slots of its first edge's slot
}

// runSlotFlow builds and runs the slot-indexed network:
// source -> job (p_j), job -> open slot in window (1), slot -> sink (g).
// It checks ctx on entry and every 2¹⁶ slots and job-slot edges while
// building, so a canceled solve does not finish a network over 10⁶
// slots first.
func runSlotFlow(ctx context.Context, in *instance.Instance, open []int64, rec *metrics.Recorder) (*slotNet, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	slots := dedupSorted(open)
	n := in.N()
	// Each job's usable slots are the block slots[lo:hi], found by binary
	// search; cover[k] counts the windows holding slot k. Together they
	// size every adjacency list up front.
	lo := make([]int, n)
	hi := make([]int, n)
	cover := make([]int, len(slots)+1)
	for _, j := range in.Jobs {
		lo[j.ID] = sort.Search(len(slots), func(i int) bool { return slots[i] >= j.Release })
		hi[j.ID] = sort.Search(len(slots), func(i int) bool { return slots[i] >= j.Deadline })
		cover[lo[j.ID]]++
		cover[hi[j.ID]]--
	}
	// Node layout: 0 = source, 1 = sink, 2..2+n-1 jobs, then slots.
	g := maxflow.New(2 + n + len(slots))
	g.SetRecorder(rec)
	src, snk := 0, 1
	g.Reserve(src, n)
	g.Reserve(snk, len(slots))
	depth := 0
	for k := range slots {
		if k&(1<<16-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, false, err
			}
		}
		depth += cover[k]
		g.Reserve(2+n+k, 1+depth)
		g.AddEdge(2+n+k, snk, in.G)
	}
	net := &slotNet{
		g:            g,
		slots:        slots,
		jobSlotEdges: make([][]maxflow.EdgeRef, n),
		jobLo:        lo,
	}
	var want int64
	built := 0 // job-slot edges added
	for _, j := range in.Jobs {
		jn := 2 + j.ID
		g.Reserve(jn, 1+hi[j.ID]-lo[j.ID])
		g.AddEdge(src, jn, j.Processing)
		want += j.Processing
		edges := make([]maxflow.EdgeRef, 0, hi[j.ID]-lo[j.ID])
		for k := lo[j.ID]; k < hi[j.ID]; k++ {
			if built++; built&(1<<16-1) == 0 {
				if err := ctx.Err(); err != nil {
					return nil, false, err
				}
			}
			edges = append(edges, g.AddEdge(jn, 2+n+k, 1))
		}
		net.jobSlotEdges[j.ID] = edges
	}
	got, err := g.RunCtx(ctx, src, snk)
	return net, err == nil && got == want, err
}

// CheckNodeCounts reports whether opening counts[i] slots inside each
// tree node i's exclusive region suffices to schedule all of the
// tree's jobs. This is the Lemma 4.1 network H: job j may use nodes in
// Des(k(j)); node i admits at most counts[i] units of any single job
// and g*counts[i] units in total. counts[i] must not exceed L(i).
func CheckNodeCounts(t *lamtree.Tree, counts []int64) bool {
	return CheckNodeCountsRec(t, counts, nil)
}

// CheckNodeCountsRec is CheckNodeCounts reporting max-flow operation
// counts to rec (nil disables reporting).
func CheckNodeCountsRec(t *lamtree.Tree, counts []int64, rec *metrics.Recorder) bool {
	ok, _ := CheckNodeCountsCtx(context.Background(), t, counts, rec)
	return ok
}

// CheckNodeCountsCtx is CheckNodeCountsRec with cooperative
// cancellation threaded into the underlying max-flow run; a canceled
// context surfaces as a non-nil error (never as "infeasible").
func CheckNodeCountsCtx(ctx context.Context, t *lamtree.Tree, counts []int64, rec *metrics.Recorder) (bool, error) {
	_, ok, err := runNodeFlow(ctx, t, counts, rec)
	if err != nil {
		return false, err
	}
	return ok, nil
}

// ScheduleOnNodeCounts builds a concrete schedule from per-node open
// counts: flows become per-node demands, counts[i] leftmost exclusive
// slots of node i are opened, and demands are column-packed into them.
func ScheduleOnNodeCounts(t *lamtree.Tree, counts []int64) (*sched.Schedule, error) {
	return ScheduleOnNodeCountsRec(t, counts, nil)
}

// ScheduleOnNodeCountsRec is ScheduleOnNodeCounts reporting max-flow
// operation counts to rec (nil disables reporting).
func ScheduleOnNodeCountsRec(t *lamtree.Tree, counts []int64, rec *metrics.Recorder) (*sched.Schedule, error) {
	return ScheduleOnNodeCountsCtx(context.Background(), t, counts, rec)
}

// ScheduleOnNodeCountsCtx is ScheduleOnNodeCountsRec with cooperative
// cancellation threaded into the underlying max-flow run.
func ScheduleOnNodeCountsCtx(ctx context.Context, t *lamtree.Tree, counts []int64, rec *metrics.Recorder) (*sched.Schedule, error) {
	net, ok, err := runNodeFlow(ctx, t, counts, rec)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("flowfeas: node counts infeasible")
	}
	return extractNodeSchedule(t, net.g, net.jobNodeEdges, net.jobNodes, counts, t.G)
}

// extractNodeSchedule turns the flow on a solved node network into a
// concrete schedule: per-node demands, column-packed into each node's
// counts[i] leftmost exclusive slots.
func extractNodeSchedule(t *lamtree.Tree, g *maxflow.Graph, jobNodeEdges [][]maxflow.EdgeRef, jobNodes [][]int, counts []int64, gcap int64) (*sched.Schedule, error) {
	out := sched.New(gcap)
	demands := make([][]sched.Demand, t.M())
	for jID, edges := range jobNodeEdges {
		for k, ref := range edges {
			if f := g.Flow(ref); f > 0 {
				node := jobNodes[jID][k]
				demands[node] = append(demands[node], sched.Demand{ID: jID, Units: f})
			}
		}
	}
	for i := range demands {
		if len(demands[i]) == 0 {
			continue
		}
		slots := t.ExclusiveSlots(i, counts[i])
		if err := sched.PackColumns(out, slots, gcap, demands[i]); err != nil {
			return nil, fmt.Errorf("flowfeas: internal: packing node %d: %w", i, err)
		}
	}
	return out, nil
}

type nodeNet struct {
	g            *maxflow.Graph
	jobNodeEdges [][]maxflow.EdgeRef
	jobNodes     [][]int
}

// runNodeFlow builds and runs the node-indexed network:
// source -> job (p_j), job -> node in Des(k(j)) (counts), node -> sink
// (g*counts).
func runNodeFlow(ctx context.Context, t *lamtree.Tree, counts []int64, rec *metrics.Recorder) (*nodeNet, bool, error) {
	m := t.M()
	if len(counts) != m {
		panic(fmt.Sprintf("flowfeas: counts length %d != m=%d", len(counts), m))
	}
	for i, c := range counts {
		if c < 0 || c > t.Nodes[i].L {
			panic(fmt.Sprintf("flowfeas: counts[%d]=%d outside [0,%d]", i, c, t.Nodes[i].L))
		}
	}
	n := len(t.Jobs)
	g := maxflow.New(2 + n + m)
	g.SetRecorder(rec)
	src, snk := 0, 1
	for i := 0; i < m; i++ {
		if counts[i] > 0 {
			g.AddEdge(2+n+i, snk, t.G*counts[i])
		}
	}
	net := &nodeNet{
		g:            g,
		jobNodeEdges: make([][]maxflow.EdgeRef, n),
		jobNodes:     make([][]int, n),
	}
	var want int64
	for jID, j := range t.Jobs {
		jn := 2 + jID
		g.AddEdge(src, jn, j.Processing)
		want += j.Processing
		for _, d := range t.Des(t.NodeOf[jID]) {
			if counts[d] == 0 {
				continue
			}
			ref := g.AddEdge(jn, 2+n+d, counts[d])
			net.jobNodeEdges[jID] = append(net.jobNodeEdges[jID], ref)
			net.jobNodes[jID] = append(net.jobNodes[jID], d)
		}
	}
	got, err := g.RunCtx(ctx, src, snk)
	if err != nil {
		return net, false, err
	}
	return net, got == want, nil
}

func dedupSorted(open []int64) []int64 {
	out := make([]int64, len(open))
	copy(out, open)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	w := 0
	for i, v := range out {
		if i == 0 || v != out[i-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}
