// Package lamtree builds the tree of job windows of a nested
// active-time instance (paper §2) and provides the canonicalization
// used by the rounding algorithm: binarization with virtual nodes and
// the rigid-leaf transformation.
//
// Each tree node i carries an interval K(i); real nodes correspond to
// a distinct job window, virtual nodes are introduced by
// canonicalization and carry no jobs and no exclusive slots. The
// length L(i) counts the slots of K(i) not covered by the windows of
// i's (real) descendants; every time slot under a root belongs to the
// exclusive region of exactly one real node.
package lamtree

import (
	"fmt"
	"sort"

	"repro/internal/instance"
	"repro/internal/interval"
)

// Node is a tree node. Virtual nodes have no jobs, zero length, and
// no exclusive slots.
type Node struct {
	// ID is the node's index in Tree.Nodes.
	ID int
	// K is the node's interval (for virtual nodes, the span of its
	// children's intervals; gaps inside the span belong to ancestors).
	K interval.Interval
	// Parent is the parent node ID, or -1 for a root.
	Parent int
	// Children lists child node IDs in left-to-right order.
	Children []int
	// Jobs lists IDs of jobs j with k(j) = this node.
	Jobs []int
	// Virtual marks nodes added by canonicalization.
	Virtual bool
	// L is the node's length: slots in K not covered by descendants.
	L int64
	// Exclusive lists the maximal runs of slots making up the node's
	// exclusive region (total length L). Empty for virtual nodes.
	Exclusive []interval.Interval
	// Depth is the distance from the root (root = 0).
	Depth int
}

// Tree is the window tree of a nested instance, possibly a forest.
type Tree struct {
	// Nodes holds all nodes, indexed by ID.
	Nodes []Node
	// Roots lists the root node IDs in time order.
	Roots []int
	// Jobs holds the (possibly canonicalized) jobs. The rigid-leaf
	// transformation may shrink a job's window; shrunk windows are
	// subsets of the originals, so any schedule for these jobs is
	// valid for the original instance.
	Jobs []instance.Job
	// G is the machine capacity.
	G int64
	// NodeOf maps each job ID to its node k(j).
	NodeOf []int

	// desCache holds, per node, the IDs of the node and all its
	// descendants; Des() is on the hot path of every flow network
	// build, so the lists are materialized once per recompute.
	desCache [][]int
}

// Build constructs the window tree for a nested instance. It returns
// an error if the windows are not laminar or the instance is empty.
func Build(in *instance.Instance) (*Tree, error) {
	if in.N() == 0 {
		return nil, fmt.Errorf("lamtree: empty instance")
	}
	windows := in.Windows()
	if !interval.IsLaminar(windows) {
		a, b := interval.FirstViolation(windows)
		return nil, fmt.Errorf("lamtree: windows %v and %v cross (jobs %d, %d)",
			windows[a], windows[b], a, b)
	}

	distinct := interval.Dedup(windows)
	t := &Tree{
		Nodes:  make([]Node, 0, 2*len(distinct)),
		Jobs:   make([]instance.Job, in.N()),
		G:      in.G,
		NodeOf: make([]int, in.N()),
	}
	copy(t.Jobs, in.Jobs)

	nodeByWindow := make(map[interval.Interval]int, len(distinct))
	// distinct is sorted with containers before contents, so a stack
	// of currently-open ancestors yields each node's parent.
	var stack []int
	for _, w := range distinct {
		for len(stack) > 0 && !t.Nodes[stack[len(stack)-1]].K.ContainsInterval(w) {
			stack = stack[:len(stack)-1]
		}
		parent := -1
		if len(stack) > 0 {
			parent = stack[len(stack)-1]
		}
		id := len(t.Nodes)
		t.Nodes = append(t.Nodes, Node{ID: id, K: w, Parent: parent})
		if parent >= 0 {
			t.Nodes[parent].Children = append(t.Nodes[parent].Children, id)
		} else {
			t.Roots = append(t.Roots, id)
		}
		stack = append(stack, id)
		nodeByWindow[w] = id
	}

	for i, j := range t.Jobs {
		id := nodeByWindow[j.Window()]
		t.NodeOf[i] = id
		t.Nodes[id].Jobs = append(t.Nodes[id].Jobs, i)
	}

	t.recompute()
	return t, nil
}

// recompute refreshes depths, lengths, exclusive regions, and the
// descendant-list cache.
func (t *Tree) recompute() {
	for _, r := range t.Roots {
		t.recomputeFrom(r, 0)
	}
	t.rebuildDesCache()
}

// rebuildDesCache materializes Des(i) for every node in post-order
// (children's lists are built first and concatenated).
func (t *Tree) rebuildDesCache() {
	t.desCache = make([][]int, len(t.Nodes))
	var walk func(id int)
	walk = func(id int) {
		list := make([]int, 0, 1)
		list = append(list, id)
		for _, c := range t.Nodes[id].Children {
			walk(c)
			list = append(list, t.desCache[c]...)
		}
		t.desCache[id] = list
	}
	for _, r := range t.Roots {
		walk(r)
	}
}

func (t *Tree) recomputeFrom(id, depth int) {
	n := &t.Nodes[id]
	n.Depth = depth
	for _, c := range n.Children {
		t.recomputeFrom(c, depth+1)
	}
	if n.Virtual {
		n.L = 0
		n.Exclusive = nil
		return
	}
	// A real node's exclusive region is K minus the union of the K's
	// of its nearest real descendants (children, skipping virtuals).
	covered := t.realChildIntervals(id)
	interval.Sort(covered)
	n.Exclusive = n.Exclusive[:0]
	cur := n.K.Start
	for _, c := range covered {
		if c.Start > cur {
			n.Exclusive = append(n.Exclusive, interval.Interval{Start: cur, End: c.Start})
		}
		if c.End > cur {
			cur = c.End
		}
	}
	if cur < n.K.End {
		n.Exclusive = append(n.Exclusive, interval.Interval{Start: cur, End: n.K.End})
	}
	n.L = 0
	for _, e := range n.Exclusive {
		n.L += e.Len()
	}
}

// realChildIntervals returns the intervals of the nearest real
// descendants of id (descending through virtual children).
func (t *Tree) realChildIntervals(id int) []interval.Interval {
	var out []interval.Interval
	var walk func(c int)
	walk = func(c int) {
		if t.Nodes[c].Virtual {
			for _, cc := range t.Nodes[c].Children {
				walk(cc)
			}
			return
		}
		out = append(out, t.Nodes[c].K)
	}
	for _, c := range t.Nodes[id].Children {
		walk(c)
	}
	return out
}

// M returns the number of tree nodes.
func (t *Tree) M() int { return len(t.Nodes) }

// SizeBytes estimates the tree's retained heap footprint (nodes with
// their per-node slices, jobs, NodeOf, and the materialized descendant
// cache). The solve cache uses it to byte-account retained warm state.
func (t *Tree) SizeBytes() int64 {
	b := int64(len(t.Nodes))*128 + int64(len(t.Roots))*8 +
		int64(len(t.Jobs))*32 + int64(len(t.NodeOf))*8
	for i := range t.Nodes {
		b += int64(len(t.Nodes[i].Children))*8 +
			int64(len(t.Nodes[i].Jobs))*8 +
			int64(len(t.Nodes[i].Exclusive))*16
	}
	b += int64(len(t.desCache)) * 24
	for _, d := range t.desCache {
		b += int64(len(d)) * 8
	}
	return b
}

// LowerBounds returns, per node v, a lower bound on the active slots
// any feasible schedule opens inside K(v): the largest of ⌈vol(v)/g⌉
// (the processing of every job in v's subtree must fit there), the
// longest job in the subtree (it needs that many distinct slots), and
// the sum of the children's bounds (their windows are disjoint). One
// post-order sweep, O(n). A component's bound is its root's entry.
func (t *Tree) LowerBounds() []int64 {
	lb := make([]int64, len(t.Nodes))
	vol := make([]int64, len(t.Nodes))
	maxP := make([]int64, len(t.Nodes))
	for _, id := range t.PostOrder() {
		n := &t.Nodes[id]
		var sum int64
		for _, c := range n.Children {
			vol[id] += vol[c]
			maxP[id] = max(maxP[id], maxP[c])
			sum += lb[c]
		}
		for _, j := range n.Jobs {
			vol[id] += t.Jobs[j].Processing
			maxP[id] = max(maxP[id], t.Jobs[j].Processing)
		}
		lb[id] = max((vol[id]+t.G-1)/t.G, maxP[id], sum)
	}
	return lb
}

// IsLeaf reports whether node id has no children.
func (t *Tree) IsLeaf(id int) bool { return len(t.Nodes[id].Children) == 0 }

// Des returns Des(id): the IDs of id and all its descendants. The
// returned slice is shared cache state — callers must not modify it.
// (It is rebuilt on Build and Canonicalize; structural edits in
// between would require another recompute, which no caller performs.)
func (t *Tree) Des(id int) []int {
	if t.desCache != nil && id < len(t.desCache) && t.desCache[id] != nil {
		return t.desCache[id]
	}
	var out []int
	stack := []int{id}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, u)
		for _, c := range t.Nodes[u].Children {
			stack = append(stack, c)
		}
	}
	return out
}

// Anc returns Anc(id): the IDs of id and all its ancestors, from id
// up to the root.
func (t *Tree) Anc(id int) []int {
	var out []int
	for u := id; u >= 0; u = t.Nodes[u].Parent {
		out = append(out, u)
	}
	return out
}

// IsAncestorOf reports whether a ∈ Anc(b) (inclusive).
func (t *Tree) IsAncestorOf(a, b int) bool {
	for u := b; u >= 0; u = t.Nodes[u].Parent {
		if u == a {
			return true
		}
	}
	return false
}

// PostOrder returns all node IDs in post-order (children before
// parents), across all roots.
func (t *Tree) PostOrder() []int {
	out := make([]int, 0, len(t.Nodes))
	var walk func(id int)
	walk = func(id int) {
		for _, c := range t.Nodes[id].Children {
			walk(c)
		}
		out = append(out, id)
	}
	for _, r := range t.Roots {
		walk(r)
	}
	return out
}

// JobsInSubtree returns the IDs of jobs belonging to nodes of Des(id).
func (t *Tree) JobsInSubtree(id int) []int {
	var out []int
	for _, d := range t.Des(id) {
		out = append(out, t.Nodes[d].Jobs...)
	}
	return out
}

// ExclusiveSlots returns up to want concrete slot indices from node
// id's exclusive region, leftmost first. It panics if want > L(id).
func (t *Tree) ExclusiveSlots(id int, want int64) []int64 {
	n := &t.Nodes[id]
	if want > n.L {
		panic(fmt.Sprintf("lamtree: node %d has L=%d < want=%d", id, n.L, want))
	}
	out := make([]int64, 0, want)
	for _, e := range n.Exclusive {
		for s := e.Start; s < e.End && int64(len(out)) < want; s++ {
			out = append(out, s)
		}
	}
	return out
}

// Validate checks tree invariants: parent/child symmetry, interval
// containment, lengths consistent with exclusive regions, every job
// mapped to a real node whose interval contains its window.
func (t *Tree) Validate() error {
	for id := range t.Nodes {
		n := &t.Nodes[id]
		if n.ID != id {
			return fmt.Errorf("lamtree: node %d has ID %d", id, n.ID)
		}
		for _, c := range n.Children {
			cn := &t.Nodes[c]
			if cn.Parent != id {
				return fmt.Errorf("lamtree: child %d of %d has parent %d", c, id, cn.Parent)
			}
			if !n.K.ContainsInterval(cn.K) {
				return fmt.Errorf("lamtree: child %d interval %v not inside %d interval %v",
					c, cn.K, id, n.K)
			}
		}
		var sum int64
		for _, e := range n.Exclusive {
			sum += e.Len()
		}
		if sum != n.L {
			return fmt.Errorf("lamtree: node %d L=%d but exclusive slots sum to %d", id, n.L, sum)
		}
		if n.Virtual && len(n.Jobs) > 0 {
			return fmt.Errorf("lamtree: virtual node %d has jobs", id)
		}
		if n.Virtual && n.L != 0 {
			return fmt.Errorf("lamtree: virtual node %d has L=%d", id, n.L)
		}
	}
	for j, id := range t.NodeOf {
		n := &t.Nodes[id]
		if n.Virtual {
			return fmt.Errorf("lamtree: job %d mapped to virtual node %d", j, id)
		}
		if n.K != t.Jobs[j].Window() {
			return fmt.Errorf("lamtree: job %d window %v != node %d interval %v",
				j, t.Jobs[j].Window(), id, n.K)
		}
	}
	// Exclusive regions must partition each root's covered slots.
	for _, r := range t.Roots {
		var total int64
		for _, d := range t.Des(r) {
			total += t.Nodes[d].L
		}
		if total != t.Nodes[r].K.Len() {
			return fmt.Errorf("lamtree: root %d lengths sum to %d, span is %d",
				r, total, t.Nodes[r].K.Len())
		}
	}
	return nil
}

// SortChildren orders every node's children by interval start; useful
// after structural edits.
func (t *Tree) SortChildren() {
	for id := range t.Nodes {
		ch := t.Nodes[id].Children
		sort.Slice(ch, func(a, b int) bool {
			return t.Nodes[ch[a]].K.Start < t.Nodes[ch[b]].K.Start
		})
	}
}
