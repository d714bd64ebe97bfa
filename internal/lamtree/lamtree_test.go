package lamtree

import (
	"math/rand"
	"testing"

	"repro/internal/instance"
	"repro/internal/interval"
)

func mkInstance(t *testing.T, g int64, jobs ...instance.Job) *instance.Instance {
	t.Helper()
	in, err := instance.New(g, jobs)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestBuildChain(t *testing.T) {
	in := mkInstance(t, 2,
		instance.Job{Processing: 1, Release: 0, Deadline: 10},
		instance.Job{Processing: 1, Release: 2, Deadline: 8},
		instance.Job{Processing: 1, Release: 3, Deadline: 5},
	)
	tr, err := Build(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Roots) != 1 {
		t.Fatalf("roots: %v", tr.Roots)
	}
	root := tr.Roots[0]
	if tr.Nodes[root].K != interval.New(0, 10) {
		t.Fatalf("root interval %v", tr.Nodes[root].K)
	}
	// Chain: root L = 10-6=4, middle L = 6-2=4, leaf L = 2.
	if tr.Nodes[root].L != 4 {
		t.Fatalf("root L = %d", tr.Nodes[root].L)
	}
	var total int64
	for i := range tr.Nodes {
		total += tr.Nodes[i].L
	}
	if total != 10 {
		t.Fatalf("lengths sum to %d, want 10", total)
	}
}

func TestBuildSharedWindowsSingleNode(t *testing.T) {
	in := mkInstance(t, 3,
		instance.Job{Processing: 1, Release: 0, Deadline: 5},
		instance.Job{Processing: 2, Release: 0, Deadline: 5},
		instance.Job{Processing: 3, Release: 0, Deadline: 5},
	)
	tr, err := Build(in)
	if err != nil {
		t.Fatal(err)
	}
	if tr.M() != 1 {
		t.Fatalf("expected a single node, got %d", tr.M())
	}
	if len(tr.Nodes[0].Jobs) != 3 {
		t.Fatalf("jobs on node: %v", tr.Nodes[0].Jobs)
	}
}

func TestBuildRejectsCrossing(t *testing.T) {
	in := mkInstance(t, 1,
		instance.Job{Processing: 1, Release: 0, Deadline: 5},
		instance.Job{Processing: 1, Release: 3, Deadline: 8},
	)
	if _, err := Build(in); err == nil {
		t.Fatal("expected error for crossing windows")
	}
}

func TestBuildForest(t *testing.T) {
	in := mkInstance(t, 1,
		instance.Job{Processing: 1, Release: 0, Deadline: 2},
		instance.Job{Processing: 1, Release: 5, Deadline: 7},
	)
	tr, err := Build(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Roots) != 2 {
		t.Fatalf("roots: %v", tr.Roots)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestExclusiveSlotsWithGaps(t *testing.T) {
	// Parent [0,10) with children [2,4) and [6,8): exclusive slots of
	// the parent are 0,1,4,5,8,9.
	in := mkInstance(t, 2,
		instance.Job{Processing: 1, Release: 0, Deadline: 10},
		instance.Job{Processing: 1, Release: 2, Deadline: 4},
		instance.Job{Processing: 1, Release: 6, Deadline: 8},
	)
	tr, err := Build(in)
	if err != nil {
		t.Fatal(err)
	}
	root := tr.Roots[0]
	if tr.Nodes[root].L != 6 {
		t.Fatalf("root L = %d want 6", tr.Nodes[root].L)
	}
	slots := tr.ExclusiveSlots(root, 6)
	want := []int64{0, 1, 4, 5, 8, 9}
	for i := range want {
		if slots[i] != want[i] {
			t.Fatalf("exclusive slots %v want %v", slots, want)
		}
	}
}

func TestDesAncHelpers(t *testing.T) {
	in := mkInstance(t, 1,
		instance.Job{Processing: 1, Release: 0, Deadline: 10},
		instance.Job{Processing: 1, Release: 0, Deadline: 4},
		instance.Job{Processing: 1, Release: 5, Deadline: 9},
		instance.Job{Processing: 1, Release: 6, Deadline: 8},
	)
	tr, err := Build(in)
	if err != nil {
		t.Fatal(err)
	}
	root := tr.Roots[0]
	if got := len(tr.Des(root)); got != 4 {
		t.Fatalf("Des(root) size %d", got)
	}
	deepest := tr.NodeOf[3]
	anc := tr.Anc(deepest)
	if len(anc) != 3 {
		t.Fatalf("Anc chain %v", anc)
	}
	if !tr.IsAncestorOf(root, deepest) || tr.IsAncestorOf(deepest, root) {
		t.Fatal("IsAncestorOf wrong")
	}
	po := tr.PostOrder()
	if len(po) != tr.M() || po[len(po)-1] != root {
		t.Fatalf("PostOrder %v", po)
	}
	subtree := tr.JobsInSubtree(tr.NodeOf[2])
	if len(subtree) != 2 {
		t.Fatalf("JobsInSubtree: %v", subtree)
	}
}

func TestBinarize(t *testing.T) {
	// Root with 4 children.
	jobs := []instance.Job{{Processing: 1, Release: 0, Deadline: 12}}
	for i := int64(0); i < 4; i++ {
		jobs = append(jobs, instance.Job{Processing: 1, Release: 3 * i, Deadline: 3*i + 3})
	}
	in := mkInstance(t, 2, jobs...)
	tr, err := Build(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	for i := range tr.Nodes {
		if len(tr.Nodes[i].Children) > 2 {
			t.Fatalf("node %d has %d children", i, len(tr.Nodes[i].Children))
		}
	}
	if !tr.IsCanonical() {
		t.Fatal("tree not canonical after Canonicalize")
	}
	// Virtual nodes must have L=0 and total lengths still partition.
	var total int64
	for i := range tr.Nodes {
		if tr.Nodes[i].Virtual && tr.Nodes[i].L != 0 {
			t.Fatalf("virtual node %d has L=%d", i, tr.Nodes[i].L)
		}
		total += tr.Nodes[i].L
	}
	if total != 12 {
		t.Fatalf("lengths sum %d want 12", total)
	}
}

func TestRigidLeaves(t *testing.T) {
	// A single leaf with slack: job p=2 in window [0,5).
	in := mkInstance(t, 2, instance.Job{Processing: 2, Release: 0, Deadline: 5})
	tr, err := Build(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if !tr.IsCanonical() {
		t.Fatal("not canonical")
	}
	// The job's window must have been shrunk to [0,2).
	if tr.Jobs[0].Release != 0 || tr.Jobs[0].Deadline != 2 {
		t.Fatalf("job window after canonicalize: [%d,%d)", tr.Jobs[0].Release, tr.Jobs[0].Deadline)
	}
	leaf := tr.NodeOf[0]
	if !tr.Rigid(leaf) {
		t.Fatal("leaf not rigid")
	}
}

func TestCanonicalizePreservesJobCount(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		jobs := randomLaminarJobs(rng, 1+rng.Intn(8))
		in := mkInstance(t, int64(1+rng.Intn(4)), jobs...)
		tr, err := Build(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Canonicalize(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(tr.Jobs) != len(jobs) {
			t.Fatalf("job count changed: %d -> %d", len(jobs), len(tr.Jobs))
		}
		if !tr.IsCanonical() {
			t.Fatalf("trial %d: not canonical", trial)
		}
		// Shrunk windows must be sub-intervals of the originals.
		for j := range jobs {
			if tr.Jobs[j].Release < jobs[j].Release || tr.Jobs[j].Deadline > jobs[j].Deadline {
				t.Fatalf("job %d window grew: [%d,%d) -> [%d,%d)",
					j, jobs[j].Release, jobs[j].Deadline, tr.Jobs[j].Release, tr.Jobs[j].Deadline)
			}
			if tr.Jobs[j].Processing != jobs[j].Processing {
				t.Fatalf("job %d processing changed", j)
			}
		}
	}
}

// randomLaminarJobs builds a random laminar family by recursive
// splitting of a base interval.
func randomLaminarJobs(rng *rand.Rand, n int) []instance.Job {
	var jobs []instance.Job
	var gen func(lo, hi int64, depth int)
	gen = func(lo, hi int64, depth int) {
		if hi-lo < 1 || len(jobs) >= n {
			return
		}
		p := 1 + rng.Int63n(hi-lo)
		jobs = append(jobs, instance.Job{Processing: p, Release: lo, Deadline: hi})
		if depth < 3 && hi-lo >= 2 {
			mid := lo + 1 + rng.Int63n(hi-lo-1)
			if rng.Intn(2) == 0 {
				gen(lo, mid, depth+1)
			}
			if rng.Intn(2) == 0 {
				gen(mid, hi, depth+1)
			}
		}
	}
	gen(0, 8+rng.Int63n(12), 0)
	if len(jobs) == 0 {
		jobs = append(jobs, instance.Job{Processing: 1, Release: 0, Deadline: 2})
	}
	return jobs
}

func TestExclusiveSlotsPanicsOnOverdraw(t *testing.T) {
	in := mkInstance(t, 1, instance.Job{Processing: 1, Release: 0, Deadline: 2})
	tr, _ := Build(in)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.ExclusiveSlots(0, 99)
}

// TestLowerBounds checks each term of the tree bound on a two-root
// forest: the volume term at one root, the children's sum at the
// other, and the longest job at a leaf.
func TestLowerBounds(t *testing.T) {
	in := mkInstance(t, 3,
		// Root [0,10): children [0,4) and [6,10) each need 4 slots for
		// their p=4 job, so the sum 8 beats ⌈9/3⌉ = 3.
		instance.Job{Processing: 1, Release: 0, Deadline: 10},
		instance.Job{Processing: 4, Release: 0, Deadline: 4},
		instance.Job{Processing: 4, Release: 6, Deadline: 10},
		// Root [20,30): six p=5 jobs need ⌈30/3⌉ = 10 slots.
		instance.Job{Processing: 5, Release: 20, Deadline: 30},
		instance.Job{Processing: 5, Release: 20, Deadline: 30},
		instance.Job{Processing: 5, Release: 20, Deadline: 30},
		instance.Job{Processing: 5, Release: 20, Deadline: 30},
		instance.Job{Processing: 5, Release: 20, Deadline: 30},
		instance.Job{Processing: 5, Release: 20, Deadline: 30},
	)
	tr, err := Build(in)
	if err != nil {
		t.Fatal(err)
	}
	lb := tr.LowerBounds()
	if len(tr.Roots) != 2 {
		t.Fatalf("roots: %v", tr.Roots)
	}
	if got := lb[tr.Roots[0]]; got != 8 {
		t.Errorf("first root bound %d, want 8 (children's sum)", got)
	}
	if got := lb[tr.Roots[1]]; got != 10 {
		t.Errorf("second root bound %d, want 10 (volume)", got)
	}
	for _, c := range tr.Nodes[tr.Roots[0]].Children {
		if lb[c] != 4 {
			t.Errorf("leaf %v bound %d, want 4 (longest job)", tr.Nodes[c].K, lb[c])
		}
	}
}
