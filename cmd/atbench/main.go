// Command atbench benchmarks the core solver hot path over fixed-seed
// instance families and emits a machine-readable baseline
// (BENCH_core.json): ns/op, allocs/op, bytes/op per family plus the
// deterministic operation counters (simplex pivots, Dinic ops) for the
// same instances. Timings are machine-dependent; counters are exact
// and must be byte-stable across runs for a fixed binary.
//
// Usage:
//
//	atbench [-out BENCH_core.json] [-runs 5] [-budget 300ms] [-quick]
//	atbench -compare old.json new.json [-fail-over 1.15]
//
// The -compare mode is the run-comparison tool: it prints a per-family
// table of ns/op, allocs/op and counter deltas between two reports and
// (with -fail-over R) exits 1 when any family's median ns/op regressed
// by more than the factor R. Everything is stdlib-only so the tool can
// run in any CI image that has the Go toolchain.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	activetime "repro"
	"repro/internal/comb"
	"repro/internal/core"
	"repro/internal/gapfam"
	"repro/internal/gen"
	"repro/internal/greedy"
	"repro/internal/instance"
	"repro/internal/metrics"
	"repro/internal/solvecache"
)

const schema = "activetime-bench-core/v1"

// family is a named, fixed set of instances solved as one benchmark op.
// algorithm selects the solver: "" is the core 9/5 LP pipeline, "comb"
// the lazy-activation combinatorial solver — the path the auto router
// uses for shapes (deep chains, huge forests) the LP cannot afford —
// and "greedy-minimal" the minimal-feasible scan it uses for crossing
// windows (it records no counters).
type family struct {
	name      string
	algorithm string
	// delta turns the family into a warm-start benchmark: each instance
	// is solved cold once (retaining warm state) and the timed op
	// resumes that state for a derived near-miss — "raise_g" bumps g,
	// "grow10" adds a unit job nested into every 10th window.
	delta     string
	instances []*instance.Instance
}

// FamilyResult is one family's measurements. Counters come from a
// single instrumented solve of every instance in the family and are
// deterministic; the timing fields are medians over -runs repetitions.
type FamilyResult struct {
	Name        string `json:"name"`
	Algorithm   string `json:"algorithm,omitempty"`
	Delta       string `json:"delta,omitempty"`
	Instances   int    `json:"instances"`
	Jobs        int    `json:"jobs"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	// ColdNsPerOp is the delta families' comparison column: the median
	// cost of solving the same near-miss instances cold, with no
	// retained state. The warm speedup is ColdNsPerOp / NsPerOp.
	ColdNsPerOp int64                `json:"cold_ns_per_op,omitempty"`
	RunsNsPerOp []int64              `json:"runs_ns_per_op"`
	Counters    metrics.CounterStats `json:"counters"`
}

// Report is the whole benchmark baseline.
type Report struct {
	Schema    string         `json:"schema"`
	GoVersion string         `json:"go_version"`
	Budget    string         `json:"budget_per_run"`
	Runs      int            `json:"runs"`
	Families  []FamilyResult `json:"families"`
}

func main() {
	var (
		out      = flag.String("out", "BENCH_core.json", "output file for the JSON report")
		runs     = flag.Int("runs", 5, "timed repetitions per family (median is reported)")
		budget   = flag.Duration("budget", 300*time.Millisecond, "minimum measuring time per repetition")
		quick    = flag.Bool("quick", false, "smoke mode: one short repetition per family")
		compare  = flag.Bool("compare", false, "compare two existing reports instead of benchmarking")
		failOver = flag.Float64("fail-over", 0, "with -compare: exit 1 when any family's ns/op regressed by more than this factor (0 disables)")
		checkCtr = flag.Bool("check-counters", false, "with -compare: exit 1 when any family's deterministic counters differ")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: atbench -compare old.json new.json")
			os.Exit(2)
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), *failOver, *checkCtr))
	}
	if *quick {
		*runs = 1
		*budget = 20 * time.Millisecond
	}
	if err := runBench(*out, *runs, *budget); err != nil {
		fmt.Fprintln(os.Stderr, "atbench:", err)
		os.Exit(1)
	}
}

// families builds the fixed-seed benchmark suite. Seeds and parameters
// are frozen: changing them invalidates every committed baseline.
func families() []family {
	nested := func(name string, count, n int, g int64, seed int64) family {
		rng := rand.New(rand.NewSource(seed))
		ins := make([]*instance.Instance, count)
		for i := range ins {
			ins[i] = gen.RandomLaminar(rng, gen.DefaultLaminar(n, g))
		}
		return family{name: name, instances: ins}
	}
	unit := func(name string, count, n int, g int64, seed int64) family {
		rng := rand.New(rand.NewSource(seed))
		ins := make([]*instance.Instance, count)
		for i := range ins {
			ins[i] = gen.RandomUnitLaminar(rng, gen.DefaultLaminar(n, g))
		}
		return family{name: name, instances: ins}
	}
	// general holds fixed-seed crossing-window instances of 8–32 jobs,
	// with every r, d and p multiplied by scale: the auto router's
	// greedy-minimal route, whose cost should follow the job count and
	// not the horizon.
	general := func(name string, count int, g int64, scale int64, seed int64) family {
		rng := rand.New(rand.NewSource(seed))
		ins := make([]*instance.Instance, count)
		for i := range ins {
			base := gen.RandomGeneral(rng, gen.DefaultGeneral(8+rng.Intn(25), g))
			jobs := make([]instance.Job, base.N())
			for k, j := range base.Jobs {
				jobs[k] = instance.Job{Processing: scale * j.Processing, Release: scale * j.Release, Deadline: scale * j.Deadline}
			}
			ins[i] = instance.MustNew(g, jobs)
		}
		return family{name: name, algorithm: "greedy-minimal", instances: ins}
	}
	nestedLarge := nested("nested-large", 4, 64, 4, 303)
	forest100k := []*instance.Instance{gen.NestedForest(10, 5, 4, 30, 4)}
	return []family{
		nested("nested-small", 8, 12, 3, 101),
		nested("nested-medium", 6, 32, 3, 202),
		nestedLarge,
		unit("unit-nested", 6, 32, 2, 404),
		{name: "gap-worstcase", instances: []*instance.Instance{
			gapfam.NaturalGap2(6),
			gapfam.Nested32(6),
			gapfam.Staircase(6, 2),
			gapfam.PinnedComb(8, 3),
		}},
		// deep-chain is the depth⁴ repro shape on the solver that fixes
		// it: a 900-level chain the LP cannot touch (its estimated
		// tableau is terabytes; see EstimateLP) solved combinatorially.
		// deep-chain-lp is the deepest chain the LP path still affords,
		// kept on the LP to time its superlinear growth with depth.
		{name: "deep-chain", algorithm: "comb", instances: []*instance.Instance{
			gen.NestedChain(900, 2, 1),
		}},
		{name: "deep-chain-lp", instances: []*instance.Instance{
			gen.NestedChain(48, 2, 1),
		}},
		// nested-100k / nested-1m exercise the combinatorial solver at
		// the scales the auto router sends it: ~10⁵- and ~10⁶-job
		// laminar forests.
		{name: "nested-100k", algorithm: "comb", instances: forest100k},
		{name: "nested-1m", algorithm: "comb", instances: []*instance.Instance{
			gen.NestedForest(25, 6, 4, 30, 4),
		}},
		// greedy-general / greedy-general-x16 are the same instances at
		// time scales 1 and 16: the run scan's ns/op should stay within
		// a small factor across them (a slot-by-slot scan is ~200× apart).
		general("greedy-general", 8, 3, 1, 505),
		general("greedy-general-x16", 8, 3, 16, 505),
		// Delta families time the combinatorial warm-start resumes
		// against cold re-solves of the same near-miss (see
		// benchDeltaFamily): raised g, and a 10% nested job growth.
		// The grow-100k base is a slacker forest (3 spare units per node
		// vs the benchmark forest's 2): 10% job growth must stay
		// feasible on top of the frozen base placement.
		{name: "delta-raise-g-100k", algorithm: "comb", delta: "raise_g", instances: forest100k},
		{name: "delta-grow-10pct", algorithm: "comb", delta: "grow10", instances: nestedLarge.instances},
		{name: "delta-grow-10pct-100k", algorithm: "comb", delta: "grow10", instances: []*instance.Instance{
			gen.NestedForest(12, 5, 4, 25, 4),
		}},
	}
}

func runBench(out string, runs int, budget time.Duration) error {
	rep := Report{
		Schema:    schema,
		GoVersion: runtime.Version(),
		Budget:    budget.String(),
		Runs:      runs,
	}
	for _, f := range families() {
		fr, err := benchFamily(f, runs, budget)
		if err != nil {
			return fmt.Errorf("family %s: %w", f.name, err)
		}
		rep.Families = append(rep.Families, fr)
		warm := ""
		if fr.ColdNsPerOp > 0 && fr.NsPerOp > 0 {
			warm = fmt.Sprintf("  warm-speedup=%.1fx", float64(fr.ColdNsPerOp)/float64(fr.NsPerOp))
		}
		fmt.Printf("%-22s %12d ns/op %8d allocs/op %10d B/op  pivots=%d dinic_bfs=%d%s\n",
			fr.Name, fr.NsPerOp, fr.AllocsPerOp, fr.BytesPerOp,
			fr.Counters.SimplexPivots, fr.Counters.DinicBFSRounds, warm)
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if err := os.WriteFile(out, b, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	return nil
}

func benchFamily(f family, runs int, budget time.Duration) (FamilyResult, error) {
	if f.delta != "" {
		return benchDeltaFamily(f, runs, budget)
	}
	fr := FamilyResult{Name: f.name, Algorithm: f.algorithm, Instances: len(f.instances)}
	for _, in := range f.instances {
		fr.Jobs += in.N()
	}
	solveAll := func(rec *metrics.Recorder) error {
		for _, in := range f.instances {
			var err error
			switch f.algorithm {
			case "comb":
				_, _, err = comb.SolveContext(context.Background(), in, comb.Options{Metrics: rec})
			case "greedy-minimal":
				_, err = greedy.MinimalFeasible(in, greedy.LeftToRight)
			default:
				_, _, err = core.SolveWithOptions(in, core.Options{Workers: 1, Metrics: rec})
			}
			if err != nil {
				return err
			}
		}
		return nil
	}

	// Deterministic counters from one instrumented pass.
	rec := new(metrics.Recorder)
	if err := solveAll(rec); err != nil {
		return fr, err
	}
	fr.Counters = rec.Snapshot().Counters

	var failed error
	op := func() {
		if err := solveAll(nil); err != nil && failed == nil {
			failed = err
		}
	}
	for r := 0; r < runs; r++ {
		ns, allocs, bytes := measure(budget, op)
		if failed != nil {
			return fr, failed
		}
		fr.RunsNsPerOp = append(fr.RunsNsPerOp, ns)
		// allocs/bytes are deterministic per op; keep the last run's.
		fr.AllocsPerOp, fr.BytesPerOp = allocs, bytes
	}
	fr.NsPerOp = median(fr.RunsNsPerOp)
	return fr, nil
}

// deriveDelta builds the near-miss instance a delta family resumes
// into, from a canonical base. The construction is deterministic so
// the warm-path counters stay byte-stable.
func deriveDelta(kind string, base *instance.Instance) (*instance.Instance, error) {
	switch kind {
	case "raise_g":
		// Same jobs (already canonical), capacity bumped by 2.
		d := base.Clone()
		d.G += 2
		return d, nil
	case "grow10":
		// Every 10th job spawns a unit job at its component's root
		// window: ~10% more jobs, trivially nested inside the existing
		// laminar forest and placeable in the forest's residual slack.
		// (Duplicating inner windows instead can be infeasible: the
		// cold solve concentrates parent jobs into leaf slots, so tight
		// inner windows end up completely full.)
		type span struct{ lo, hi int64 }
		idx := make([]int, len(base.Jobs))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			ja, jb := base.Jobs[idx[a]], base.Jobs[idx[b]]
			if ja.Release != jb.Release {
				return ja.Release < jb.Release
			}
			return ja.Deadline > jb.Deadline
		})
		var roots []span
		for _, i := range idx {
			j := base.Jobs[i]
			if len(roots) == 0 || j.Release >= roots[len(roots)-1].hi {
				roots = append(roots, span{j.Release, j.Deadline})
			}
		}
		jobs := append([]instance.Job(nil), base.Jobs...)
		for i := 0; i < len(base.Jobs); i += 10 {
			j := base.Jobs[i]
			k := sort.Search(len(roots), func(k int) bool { return roots[k].hi > j.Release })
			jobs = append(jobs, instance.Job{Processing: 1, Release: roots[k].lo, Deadline: roots[k].hi})
		}
		d, err := instance.New(base.G, jobs)
		if err != nil {
			return nil, err
		}
		return d.Permute(solvecache.CanonicalOrder(d)), nil
	default:
		return nil, fmt.Errorf("unknown delta kind %q", kind)
	}
}

// benchDeltaFamily measures the combinatorial warm-start resumes.
// Outside the timed region it solves each canonical base instance cold
// with warm capture, derives the near-miss delta, and classifies it;
// the timed op is SolveWarmCtx resuming the retained state (immutable,
// so every repetition resumes the same capture). ColdNsPerOp measures
// cold solves of the same delta instances for the warm-vs-cold
// comparison. Any warm failure aborts the family: the resume paths
// must never silently fall back under a frozen benchmark delta.
func benchDeltaFamily(f family, runs int, budget time.Duration) (FamilyResult, error) {
	fr := FamilyResult{Name: f.name, Algorithm: f.algorithm, Delta: f.delta, Instances: len(f.instances)}
	type resume struct {
		in   *instance.Instance
		warm *activetime.WarmState
		d    activetime.Delta
	}
	prep := make([]resume, 0, len(f.instances))
	for _, raw := range f.instances {
		base := raw.Permute(solvecache.CanonicalOrder(raw))
		res, err := activetime.SolveCombinatorial(base, activetime.SolveOptions{CaptureWarm: true})
		if err != nil {
			return fr, fmt.Errorf("base solve: %w", err)
		}
		if res.Warm == nil {
			return fr, fmt.Errorf("base solve retained no warm state")
		}
		din, err := deriveDelta(f.delta, base)
		if err != nil {
			return fr, err
		}
		d := activetime.ClassifyDelta(base, din)
		if d.Kind == activetime.WarmNone {
			return fr, fmt.Errorf("derived delta did not classify as warmable")
		}
		fr.Jobs += din.N()
		prep = append(prep, resume{in: din, warm: res.Warm, d: d})
	}

	// Deterministic counters from one instrumented warm pass.
	rec := new(metrics.Recorder)
	for _, p := range prep {
		if _, err := activetime.SolveWarmCtx(context.Background(), p.in, p.warm, p.d,
			activetime.SolveOptions{Metrics: rec}); err != nil {
			return fr, fmt.Errorf("warm resume: %w", err)
		}
	}
	fr.Counters = rec.Snapshot().Counters

	var failed error
	warmOp := func() {
		for _, p := range prep {
			if _, err := activetime.SolveWarmCtx(context.Background(), p.in, p.warm, p.d,
				activetime.SolveOptions{}); err != nil && failed == nil {
				failed = err
			}
		}
	}
	coldOp := func() {
		for _, p := range prep {
			if _, _, err := comb.SolveContext(context.Background(), p.in, comb.Options{}); err != nil && failed == nil {
				failed = err
			}
		}
	}
	var coldRuns []int64
	for r := 0; r < runs; r++ {
		ns, allocs, bytes := measure(budget, warmOp)
		coldNs, _, _ := measure(budget, coldOp)
		if failed != nil {
			return fr, failed
		}
		fr.RunsNsPerOp = append(fr.RunsNsPerOp, ns)
		coldRuns = append(coldRuns, coldNs)
		fr.AllocsPerOp, fr.BytesPerOp = allocs, bytes
	}
	fr.NsPerOp = median(fr.RunsNsPerOp)
	fr.ColdNsPerOp = median(coldRuns)
	return fr, nil
}

// measure times fn until the budget elapses and reports per-op cost.
// It is a minimal stand-in for testing.B that allows a configurable
// budget without the testing flag machinery.
func measure(budget time.Duration, fn func()) (nsPerOp, allocsPerOp, bytesPerOp int64) {
	fn() // warm caches and pools before the timed region
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var iters int64
	for time.Since(start) < budget {
		fn()
		iters++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return elapsed.Nanoseconds() / iters,
		int64(m1.Mallocs-m0.Mallocs) / iters,
		int64(m1.TotalAlloc-m0.TotalAlloc) / iters
}

func median(v []int64) int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s[len(s)/2]
}

// --- comparison mode ---

func runCompare(oldPath, newPath string, failOver float64, checkCounters bool) int {
	oldRep, err := load(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "atbench:", err)
		return 2
	}
	newRep, err := load(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "atbench:", err)
		return 2
	}
	oldBy := map[string]FamilyResult{}
	for _, f := range oldRep.Families {
		oldBy[f.Name] = f
	}
	fmt.Printf("%-16s %14s %14s %8s %10s %10s %8s\n",
		"family", "old ns/op", "new ns/op", "speedup", "old allocs", "new allocs", "Δallocs")
	exit := 0
	for _, nf := range newRep.Families {
		of, ok := oldBy[nf.Name]
		if !ok {
			fmt.Printf("%-16s %14s (new family)\n", nf.Name, "-")
			continue
		}
		speed := float64(of.NsPerOp) / float64(nf.NsPerOp)
		dAlloc := "0%"
		if of.AllocsPerOp > 0 {
			dAlloc = fmt.Sprintf("%+.1f%%", 100*float64(nf.AllocsPerOp-of.AllocsPerOp)/float64(of.AllocsPerOp))
		}
		flag := ""
		if failOver > 0 && float64(nf.NsPerOp) > float64(of.NsPerOp)*failOver {
			flag = "  REGRESSION"
			exit = 1
		}
		fmt.Printf("%-16s %14d %14d %7.2fx %10d %10d %8s%s\n",
			nf.Name, of.NsPerOp, nf.NsPerOp, speed, of.AllocsPerOp, nf.AllocsPerOp, dAlloc, flag)
		if of.Counters != nf.Counters {
			fmt.Printf("%-16s   counters changed: old %+v\n%-16s                     new %+v\n",
				"", of.Counters, "", nf.Counters)
			if checkCounters {
				exit = 1
			}
		}
	}
	return exit
}

func load(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, schema)
	}
	return &r, nil
}
