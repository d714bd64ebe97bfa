package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/greedy"
	"repro/internal/instance"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// E1ApproxRatio measures the 9/5 algorithm against exact OPT and its
// own LP lower bound across random nested instances (paper Theorem
// 4.15: ratio ≤ 9/5 always; typical instances land far below).
func E1ApproxRatio(cfg Config) (*Table, error) {
	type cell struct {
		name   string
		params gen.LaminarParams
	}
	deep := func(n int, g int64) gen.LaminarParams {
		p := gen.DefaultLaminar(n, g)
		p.MaxDepth = 7
		p.SplitProb = 0.9
		return p
	}
	heavy := func(n int, g int64) gen.LaminarParams {
		p := gen.DefaultLaminar(n, g)
		p.MaxProcessing = 9
		return p
	}
	grid := []cell{
		{"n=6 g=2", gen.DefaultLaminar(6, 2)},
		{"n=8 g=2", gen.DefaultLaminar(8, 2)},
		{"n=8 g=3", gen.DefaultLaminar(8, 3)},
		{"n=10 g=2", gen.DefaultLaminar(10, 2)},
		{"n=10 g=5", gen.DefaultLaminar(10, 5)},
		{"n=12 g=3", gen.DefaultLaminar(12, 3)},
		{"n=12 g=5", gen.DefaultLaminar(12, 5)},
		{"n=14 g=2", gen.DefaultLaminar(14, 2)},
		{"deep n=10 g=2", deep(10, 2)},
		{"deep n=12 g=3", deep(12, 3)},
		{"heavy n=10 g=2", heavy(10, 2)},
		{"wide n=10 g=8", gen.DefaultLaminar(10, 8)},
	}
	if cfg.Quick {
		grid = grid[:2]
	}
	t := &Table{
		ID:    "E1",
		Title: "9/5 algorithm vs exact OPT on random nested instances",
		Columns: []string{"family", "trials", "ratio(alg/OPT) mean", "max",
			"optimal %", "ratio(alg/LP) mean", "max", "repairs"},
	}
	for _, c := range grid {
		ratiosOpt := make([]float64, cfg.Trials)
		ratiosLP := make([]float64, cfg.Trials)
		optimal := make([]bool, cfg.Trials)
		repairCounts := make([]int64, cfg.Trials)
		errs := make([]error, cfg.Trials)
		cfg.parallelFor(cfg.Trials, func(i int) {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
			in := gen.RandomLaminar(rng, c.params)
			s, rep, err := core.Solve(in)
			if err != nil {
				errs[i] = err
				return
			}
			opt, err := exact.Opt(in)
			if err != nil {
				errs[i] = err
				return
			}
			ratiosOpt[i] = float64(s.NumActive()) / float64(opt)
			ratiosLP[i] = float64(s.NumActive()) / rep.LPValue
			optimal[i] = s.NumActive() == opt
			repairCounts[i] = rep.Repairs
		})
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("E1: %w", err)
			}
		}
		so := stats.Summarize(ratiosOpt)
		sl := stats.Summarize(ratiosLP)
		nOpt := 0
		for _, b := range optimal {
			if b {
				nOpt++
			}
		}
		var repairs int64
		for _, r := range repairCounts {
			repairs += r
		}
		t.AddRow(c.name, di(cfg.Trials),
			f3(so.Mean), f3(so.Max), pct(float64(nOpt)/float64(cfg.Trials)),
			f3(sl.Mean), f3(sl.Max), d(repairs))
	}
	t.Note("guarantee: every ratio column must stay ≤ 1.800 (Theorem 4.15)")
	return t, nil
}

// E9RoundingRatio studies Lemma 3.3 directly: the distribution of
// x̃([m]) / x([m]) over random instances (the LP-relative cost of
// rounding before schedule extraction), on larger instances where
// computing exact OPT would be slow.
func E9RoundingRatio(cfg Config) (*Table, error) {
	sizes := []int{8, 12, 16, 20, 24, 32}
	if cfg.Quick {
		sizes = []int{8, 12}
	}
	t := &Table{
		ID:      "E9",
		Title:   "rounding budget x̃/x over random nested instances",
		Columns: []string{"n", "trials", "mean", "p50", "p90", "max", "bound"},
	}
	for _, n := range sizes {
		ratios := make([]float64, cfg.Trials)
		errs := make([]error, cfg.Trials)
		cfg.parallelFor(cfg.Trials, func(i int) {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*104729))
			in := gen.RandomLaminar(rng, gen.DefaultLaminar(n, int64(1+rng.Intn(4))))
			_, rep, err := core.Solve(in)
			if err != nil {
				errs[i] = err
				return
			}
			ratios[i] = float64(rep.RoundedSlots) / rep.LPValue
		})
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("E9: %w", err)
			}
		}
		s := stats.Summarize(ratios)
		t.AddRow(di(n), di(cfg.Trials), f3(s.Mean), f3(s.P50), f3(s.P90), f3(s.Max), "1.800")
	}
	t.Note("Lemma 3.3: x̃([m]) ≤ (9/5)·x([m]) must hold in every trial")
	return t, nil
}

// E4Greedy measures the two minimal-feasible baselines against OPT on
// random general (possibly crossing) and nested instances.
func E4Greedy(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E4",
		Title: "minimal-feasible greedy baselines vs exact OPT",
		Columns: []string{"family", "trials", "LtR mean", "LtR max",
			"RtL mean", "RtL max", "bound"},
	}
	families := []struct {
		name string
		make func(rng *rand.Rand) *instance.Instance
	}{
		{"general n=7", func(rng *rand.Rand) *instance.Instance {
			return gen.RandomGeneral(rng, gen.DefaultGeneral(7, int64(1+rng.Intn(3))))
		}},
		{"nested n=8", func(rng *rand.Rand) *instance.Instance {
			return gen.RandomLaminar(rng, gen.DefaultLaminar(8, int64(1+rng.Intn(3))))
		}},
		{"unit nested n=8", func(rng *rand.Rand) *instance.Instance {
			return gen.RandomUnitLaminar(rng, gen.DefaultLaminar(8, 2))
		}},
	}
	for _, fam := range families {
		ltr := make([]float64, cfg.Trials)
		rtl := make([]float64, cfg.Trials)
		errs := make([]error, cfg.Trials)
		cfg.parallelFor(cfg.Trials, func(i int) {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*7907))
			in := fam.make(rng)
			opt, err := exact.Opt(in)
			if err != nil {
				errs[i] = err
				return
			}
			a, err := greedy.MinimalFeasible(in, greedy.LeftToRight)
			if err != nil {
				errs[i] = err
				return
			}
			b, err := greedy.LazyRightToLeft(in)
			if err != nil {
				errs[i] = err
				return
			}
			ltr[i] = float64(len(a.Open)) / float64(opt)
			rtl[i] = float64(len(b.Open)) / float64(opt)
		})
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("E4: %w", err)
			}
		}
		sa, sb := stats.Summarize(ltr), stats.Summarize(rtl)
		t.AddRow(fam.name, di(cfg.Trials), f3(sa.Mean), f3(sa.Max), f3(sb.Mean), f3(sb.Max), "3.000")
	}
	t.Note("minimal feasible solutions are 3-approximations (CKM); Kumar–Khuller's refinement is 2-approximate")
	return t, nil
}

// E8Scaling measures wall-clock time of the full 9/5 pipeline and the
// greedy baseline as instance size grows. Stage breakdown and
// operation counts come from the internal/metrics recorder threaded
// through the solve, so the numbers describe the *same* runs as the
// total (no re-execution).
func E8Scaling(cfg Config) (*Table, error) {
	sizes := []int{8, 12, 16, 24, 32}
	if cfg.Quick {
		sizes = []int{8, 12}
	}
	trials := cfg.Trials
	if trials > 10 {
		trials = 10
	}
	t := &Table{
		ID:    "E8",
		Title: "wall-clock per solve (ms) with instrumented stage breakdown",
		Columns: []string{"n", "trials", "nested95 total", "tree+canon", "LP solve",
			"round+sched", "greedy-RtL", "LP value mean", "pivots/solve", "dinic augs/solve"},
	}
	for _, n := range sizes {
		rec := new(metrics.Recorder)
		var coreMS, greedyMS, lpSum float64
		var err error
		for i := 0; i < trials; i++ {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*31337))
			in := gen.RandomLaminar(rng, gen.DefaultLaminar(n, 3))

			start := time.Now()
			_, rep, e := core.SolveWithOptions(in, core.Options{Metrics: rec})
			if e != nil {
				err = e
				break
			}
			coreMS += ms(start)
			lpSum += rep.LPValue

			start = time.Now()
			if _, e := greedy.LazyRightToLeft(in); e != nil {
				err = e
				break
			}
			greedyMS += ms(start)
		}
		if err != nil {
			return nil, fmt.Errorf("E8: %w", err)
		}
		st := rec.Snapshot()
		ft := float64(trials)
		nsToMS := func(ns int64) float64 { return float64(ns) / 1e6 }
		treeMS := nsToMS(st.StageNS("tree_build", "canonicalize"))
		lpMS := nsToMS(st.StageNS("lp_build", "lp_solve"))
		roundMS := nsToMS(st.StageNS("transform", "round", "feas_check", "repair", "place"))
		t.AddRow(di(n), di(trials), f2(coreMS/ft), f2(treeMS/ft), f2(lpMS/ft),
			f2(roundMS/ft), f2(greedyMS/ft), f2(lpSum/ft),
			f1(float64(st.Counters.SimplexPivots)/ft),
			f1(float64(st.Counters.DinicAugPaths)/ft))
	}
	t.Note("stage columns and operation counters come from the metrics recorder of the timed runs themselves")
	t.Note("the LP solve dominates nested95; greedy-RtL runs one small flow per probe of a binary search per breakpoint run")
	return t, nil
}

// ms returns elapsed milliseconds since start as a float.
func ms(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}
