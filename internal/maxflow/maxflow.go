// Package maxflow implements Dinic's maximum-flow algorithm on
// directed graphs with int64 capacities. It is the workhorse behind
// every feasibility test in the library: scheduling feasibility for a
// set of active slots reduces to a max-flow computation (see the
// paper's §1 and Lemma 4.1).
package maxflow

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/metrics"
)

// Inf is a capacity treated as unbounded. It is large enough that no
// sum of realistic instance capacities overflows int64.
const Inf = int64(1) << 60

// edge is half of an arc; the reverse half lives at rev in the
// adjacency list of to.
type edge struct {
	to  int
	rev int
	cap int64 // residual capacity
	org int64 // original capacity, to report flow = org - cap
}

// Graph is a flow network under construction or after a Run. The
// level/iter/queue scratch buffers persist across runs, so repeated
// probes on one graph allocate nothing; a Graph must therefore not
// run concurrently with itself.
type Graph struct {
	adj   [][]edge
	level []int
	iter  []int
	queue []int
	rec   *metrics.Recorder
}

// SetRecorder attaches a metrics recorder; Run and RunPushRelabel then
// report their operation counts to it. A nil recorder disables
// reporting. Counts are accumulated locally and published once per
// run, so instrumentation costs no per-operation atomics.
func (g *Graph) SetRecorder(r *metrics.Recorder) { g.rec = r }

// New returns a graph with n nodes (0..n-1) and no edges.
func New(n int) *Graph {
	return &Graph{adj: make([][]edge, n)}
}

// AddNode appends a new node and returns its index.
func (g *Graph) AddNode() int {
	g.adj = append(g.adj, nil)
	return len(g.adj) - 1
}

// Reserve grows node u's adjacency list to hold n more edge halves
// without reallocating. AddEdge stores one half at each endpoint, so a
// builder that knows every node's degree allocates each list once.
func (g *Graph) Reserve(u, n int) {
	g.adj[u] = slices.Grow(g.adj[u], n)
}

// NumNodes returns the current node count.
func (g *Graph) NumNodes() int { return len(g.adj) }

// EdgeRef identifies an edge added with AddEdge so its flow can be
// queried after running the algorithm.
type EdgeRef struct {
	from int
	idx  int
}

// AddEdge adds a directed edge from -> to with the given capacity and
// returns a reference for later flow queries. Capacities must be
// non-negative.
func (g *Graph) AddEdge(from, to int, capacity int64) EdgeRef {
	if capacity < 0 {
		panic(fmt.Sprintf("maxflow: negative capacity %d", capacity))
	}
	if from < 0 || from >= len(g.adj) || to < 0 || to >= len(g.adj) {
		panic(fmt.Sprintf("maxflow: edge %d->%d out of range (n=%d)", from, to, len(g.adj)))
	}
	g.adj[from] = append(g.adj[from], edge{to: to, rev: len(g.adj[to]), cap: capacity, org: capacity})
	g.adj[to] = append(g.adj[to], edge{to: from, rev: len(g.adj[from]) - 1, cap: 0, org: 0})
	return EdgeRef{from: from, idx: len(g.adj[from]) - 1}
}

// Flow returns the flow currently routed through the referenced edge.
func (g *Graph) Flow(r EdgeRef) int64 {
	e := g.adj[r.from][r.idx]
	return e.org - e.cap
}

// Capacity returns the referenced edge's original capacity.
func (g *Graph) Capacity(r EdgeRef) int64 { return g.adj[r.from][r.idx].org }

// SetCapacity resets the referenced edge's capacity and clears any flow
// on it (both directions), allowing incremental re-solves.
func (g *Graph) SetCapacity(r EdgeRef, capacity int64) {
	if capacity < 0 {
		panic(fmt.Sprintf("maxflow: negative capacity %d", capacity))
	}
	e := &g.adj[r.from][r.idx]
	re := &g.adj[e.to][e.rev]
	e.cap, e.org = capacity, capacity
	re.cap, re.org = 0, 0
}

// RaiseCapacity grows the referenced edge's capacity to capacity
// (which must not be below the current one) while preserving any flow
// already routed through it. Because raising capacities keeps every
// existing flow feasible, a subsequent Run continues from the current
// flow instead of recomputing it — the warm-start path for monotone
// probe sequences. Run then returns only the additional flow found.
func (g *Graph) RaiseCapacity(r EdgeRef, capacity int64) {
	e := &g.adj[r.from][r.idx]
	if capacity < e.org {
		panic(fmt.Sprintf("maxflow: RaiseCapacity %d below current %d", capacity, e.org))
	}
	e.cap += capacity - e.org
	e.org = capacity
}

// Reset clears all flow, restoring every edge to its original
// capacity.
func (g *Graph) Reset() {
	for u := range g.adj {
		for i := range g.adj[u] {
			e := &g.adj[u][i]
			e.cap = e.org
		}
	}
}

// Run computes the maximum s-t flow with Dinic's algorithm and returns
// its value. The graph retains the flow so individual edge flows can
// be read with Flow.
func (g *Graph) Run(s, t int) int64 {
	total, _ := g.RunCtx(context.Background(), s, t)
	return total
}

// RunCtx is Run with cooperative cancellation: ctx is checked once per
// BFS phase (the outer Dinic iteration). On cancellation it stops
// early and returns the flow routed so far together with ctx's error;
// the graph is left with a valid partial flow. Operation counts cover
// the work actually performed.
func (g *Graph) RunCtx(ctx context.Context, s, t int) (int64, error) {
	if s == t {
		panic("maxflow: source equals sink")
	}
	n := len(g.adj)
	if g.level == nil || len(g.level) < n {
		g.level = make([]int, n)
		g.iter = make([]int, n)
	}
	if cap(g.queue) < n {
		g.queue = make([]int, 0, n)
	}
	var total int64
	var bfsRounds, augPaths int64
	var err error
	for {
		if err = ctx.Err(); err != nil {
			break
		}
		if !g.bfs(s, t, &g.queue) {
			break
		}
		bfsRounds++
		for i := 0; i < n; i++ {
			g.iter[i] = 0
		}
		for {
			f := g.dfs(s, t, Inf)
			if f == 0 {
				break
			}
			augPaths++
			total += f
		}
	}
	if metrics.Active(g.rec) {
		g.rec.DinicRuns.Inc()
		g.rec.DinicBFSRounds.Add(bfsRounds)
		g.rec.DinicAugPaths.Add(augPaths)
	}
	return total, err
}

// bfs builds the level graph; returns false when t is unreachable.
func (g *Graph) bfs(s, t int, queue *[]int) bool {
	for i := range g.level {
		g.level[i] = -1
	}
	q := (*queue)[:0]
	g.level[s] = 0
	q = append(q, s)
	// Pop via an index rather than re-slicing so the backing array's
	// base never advances and the buffer stays reusable across runs.
	for head := 0; head < len(q); head++ {
		u := q[head]
		for _, e := range g.adj[u] {
			if e.cap > 0 && g.level[e.to] < 0 {
				g.level[e.to] = g.level[u] + 1
				q = append(q, e.to)
			}
		}
	}
	*queue = q
	return g.level[t] >= 0
}

// dfs pushes a blocking-flow augmentation from u toward t.
func (g *Graph) dfs(u, t int, f int64) int64 {
	if u == t {
		return f
	}
	for ; g.iter[u] < len(g.adj[u]); g.iter[u]++ {
		e := &g.adj[u][g.iter[u]]
		if e.cap <= 0 || g.level[e.to] != g.level[u]+1 {
			continue
		}
		d := g.dfs(e.to, t, min64(f, e.cap))
		if d > 0 {
			e.cap -= d
			g.adj[e.to][e.rev].cap += d
			return d
		}
	}
	return 0
}

// MinCutSide returns the set of nodes reachable from s in the residual
// graph after Run; these form the source side of a minimum cut.
func (g *Graph) MinCutSide(s int) []bool {
	side := make([]bool, len(g.adj))
	stack := []int{s}
	side[s] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[u] {
			if e.cap > 0 && !side[e.to] {
				side[e.to] = true
				stack = append(stack, e.to)
			}
		}
	}
	return side
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
