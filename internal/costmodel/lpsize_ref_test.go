package costmodel

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/instance"
)

// estimateComponentRef is the per-job containment sweep EstimateComponent
// replaced: it copies the jobs, sorts them by release and queries the
// Fenwick tree once per job. Kept as the reference for
// TestEstimateComponentMatchesReference.
func estimateComponentRef(in *instance.Instance) LPEstimate {
	type win struct{ r, d int64 }
	seen := make(map[win]struct{}, in.N())
	wins := make([]win, 0, in.N())
	for _, j := range in.Jobs {
		w := win{j.Release, j.Deadline}
		if _, ok := seen[w]; !ok {
			seen[w] = struct{}{}
			wins = append(wins, w)
		}
	}
	dls := make([]int64, len(wins))
	for i, w := range wins {
		dls[i] = w.d
	}
	sort.Slice(dls, func(a, b int) bool { return dls[a] < dls[b] })
	dls = dedupeInt64(dls)
	rank := func(d int64) int { // 1-based index of the largest dls ≤ d
		return sort.Search(len(dls), func(i int) bool { return dls[i] > d })
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
	sort.Slice(wins, func(a, b int) bool { return wins[a].r > wins[b].r })
	jobs := make([]instance.Job, len(in.Jobs))
	copy(jobs, in.Jobs)
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].Release > jobs[b].Release })
	var pairs int64
	wi := 0
	for _, j := range jobs {
		for wi < len(wins) && wins[wi].r >= j.Release {
			add(rank(wins[wi].d))
			wi++
		}
		pairs += prefix(rank(j.Deadline))
	}
	nodes := int64(len(wins))
	rows := int64(in.N()) + 2*nodes + pairs
	cols := nodes + pairs + rows
	return LPEstimate{Nodes: nodes, Pairs: pairs, Rows: rows, Cols: cols, TableauBytes: satMulBytes(rows, cols)}
}

func dedupeInt64(s []int64) []int64 {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// TestEstimateComponentMatchesReference: the window-weighted sweep gives
// the per-job reference's estimate on random laminar, unit and general
// instances, whole and per component, including repeated windows.
func TestEstimateComponentMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	repeated := 0 // instances with fewer distinct windows than jobs
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(60)
		var in *instance.Instance
		switch trial % 3 {
		case 0:
			in = gen.RandomLaminar(rng, gen.DefaultLaminar(n, 3))
		case 1:
			in = gen.RandomUnitLaminar(rng, gen.DefaultLaminar(n, 2))
		default:
			in = gen.RandomGeneral(rng, gen.DefaultGeneral(n, 2))
		}
		got, want := EstimateComponent(in), estimateComponentRef(in)
		if got.Nodes < int64(in.N()) {
			repeated++
		}
		if got != want {
			t.Fatalf("trial %d (%d jobs): EstimateComponent = %+v, reference %+v", trial, in.N(), got, want)
		}
		comps, _ := in.Components()
		for c, comp := range comps {
			if got, want := EstimateComponent(comp), estimateComponentRef(comp); got != want {
				t.Fatalf("trial %d component %d: EstimateComponent = %+v, reference %+v", trial, c, got, want)
			}
		}
	}
	if repeated == 0 {
		t.Fatal("no instance repeated a window; the job weights went untested")
	}
	t.Logf("%d of 300 instances repeat a window", repeated)
}
