package costmodel

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/instance"
)

// LPBudgetBytes bounds the LP tableaus one certificate-first solve
// builds: the EstimateLP footprints of the components it re-solves with
// the 9/5 pipeline sum to at most this. Because it is spent per solve,
// not per component, it bounds the LP's total time as well as its peak
// memory.
const LPBudgetBytes = 64 << 20

// LPEstimate is a conservative lower bound on the size of the
// strengthened LP the nested95 pipeline would build for one laminar
// component. Rows and Cols bound the dense simplex tableau the solver
// pins in memory; TableauBytes is the resulting footprint floor. The
// real LP is somewhat larger (canonicalization adds virtual nodes and
// the tableau carries artificial columns), so a cap comparison against
// TableauBytes only ever under-rejects.
type LPEstimate struct {
	// Nodes is the number of distinct job windows (a floor on laminar
	// tree nodes).
	Nodes int64
	// Pairs counts admissible (node, job) y-variables: for each job,
	// the distinct windows contained in its own window. On a nested
	// chain of depth d this is Θ(d²) — the term that makes the dense
	// tableau Θ(d⁴).
	Pairs int64
	// Rows and Cols bound the simplex tableau dimensions.
	Rows, Cols int64
	// TableauBytes is the dense tableau's memory floor: 8·Rows·Cols
	// for the float64 entries plus Rows·Cols/8 for the per-row nonzero
	// bitsets, saturating at MaxInt64.
	TableauBytes int64
}

// EstimateLP bounds the strengthened-LP size the nested95 pipeline
// would need for the instance, from the window structure alone — it
// never builds the laminar tree, whose descendant cache is itself
// Θ(depth²) and would defeat the point of estimating before
// committing memory. The pipeline solves one LP per laminar-forest
// component; the estimate reported is the largest component's (the
// peak resident tableau under sequential forest workers). Meaningful
// for nested instances; for general windows it is the same dominance
// count and still usable as a difficulty signal.
func EstimateLP(in *instance.Instance) LPEstimate {
	if in.N() == 0 {
		return LPEstimate{}
	}
	comps, _ := in.Components()
	var best LPEstimate
	for _, comp := range comps {
		e := EstimateComponent(comp)
		if e.TableauBytes > best.TableauBytes {
			best = e
		}
	}
	return best
}

// EstimateComponent is EstimateLP for one laminar-forest component.
// It runs the containment-count sweep pairs = Σ_j #{distinct windows
// W' : W' ⊆ W_j}: each distinct window, weighted by its job count, is
// counted with a Fenwick tree over compressed deadlines while sweeping
// releases in descending order, O(n + w log w) for w distinct windows.
func EstimateComponent(in *instance.Instance) LPEstimate {
	type win struct{ r, d, jobs int64 }
	at := make(map[[2]int64]int, in.N())
	wins := make([]win, 0, in.N())
	for _, j := range in.Jobs {
		k := [2]int64{j.Release, j.Deadline}
		if i, ok := at[k]; ok {
			wins[i].jobs++
		} else {
			at[k] = len(wins)
			wins = append(wins, win{j.Release, j.Deadline, 1})
		}
	}
	// Compress deadlines to Fenwick indices.
	dls := make([]int64, len(wins))
	for i, w := range wins {
		dls[i] = w.d
	}
	slices.Sort(dls)
	dls = slices.Compact(dls)
	rank := func(d int64) int { // 1-based index of d, a window's deadline
		i, _ := slices.BinarySearch(dls, d)
		return i + 1
	}
	fen := make([]int64, len(dls)+1)
	add := func(i int) {
		for ; i <= len(dls); i += i & -i {
			fen[i]++
		}
	}
	prefix := func(i int) int64 {
		var s int64
		for ; i > 0; i -= i & -i {
			s += fen[i]
		}
		return s
	}

	// Sweep releases descending; every window sharing a release enters
	// the Fenwick before any of them is queried, so a window counts
	// itself and the windows it contains.
	slices.SortFunc(wins, func(a, b win) int { return cmp.Compare(b.r, a.r) })
	var pairs int64
	for lo := 0; lo < len(wins); {
		hi := lo
		for ; hi < len(wins) && wins[hi].r == wins[lo].r; hi++ {
			add(rank(wins[hi].d))
		}
		for _, w := range wins[lo:hi] {
			pairs += w.jobs * prefix(rank(w.d))
		}
		lo = hi
	}

	nodes := int64(len(wins))
	njobs := int64(in.N())
	// Rows: job assignment (2) + node capacity (3) + node length (4) +
	// pair coupling (5); the ceiling rows (7)/(8) add at most one more
	// per node but are data-dependent, so they are left out of the
	// floor. Cols: structural x and y variables plus one slack or
	// surplus per row (artificials excluded — also a floor).
	rows := njobs + 2*nodes + pairs
	cols := nodes + pairs + rows
	return LPEstimate{
		Nodes:        nodes,
		Pairs:        pairs,
		Rows:         rows,
		Cols:         cols,
		TableauBytes: satMulBytes(rows, cols),
	}
}

// lpCeilingBytes bounds the TableauBytes EstimateLP can report for any
// component of an instance with the given job count, without looking at
// its windows: at most one node per job, and at most jobs² pairs (depth
// does not bound them, since a window may contain many disjoint
// windows).
func lpCeilingBytes(jobs int64) int64 {
	n := min(jobs, 1<<20) // the ceiling saturates long before this
	rows := n + 2*n + n*n
	return satMulBytes(rows, n+n*n+rows)
}

// satMulBytes returns 8·r·c + r·c/8 saturating at MaxInt64.
func satMulBytes(r, c int64) int64 {
	f := float64(r) * float64(c) * 8.125
	if f >= math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(f)
}
