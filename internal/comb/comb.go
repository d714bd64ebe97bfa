// Package comb is the production combinatorial solver for nested
// active-time instances: a Chang–Gabow–Khuller / Kumar–Khuller style
// lazy-activation / lazy-deactivation algorithm over the laminar
// forest, running in O(n log n + P·α) for P total processing units —
// and, crucially, in memory linear in the slot universe (the union of
// the root windows) and P: about 36 bytes per slot and 130 per unit
// (costmodel's combSlotBytes and combUnitBytes), where the
// strengthened LP's tableau has ~depth⁴ cells on a single chain and
// cannot be materialized. `AlgAuto` in the root package runs it first
// on every nested instance.
//
// The algorithm processes jobs innermost-first (deadline ascending,
// release descending), which by laminarity means every job placed
// earlier whose window overlaps the current one is nested inside it.
// Each job first reuses active non-full slots of its window latest
// first (a predecessor-bitset walk), then lazily activates the latest
// inactive slots (a union-find walk) for any deficit. A final lazy
// deactivation sweep visits the active slots lightest first (a stable
// counting sort by load) and tries to drain each into the residual
// capacity of other active slots and close it; every relocation probe
// costs O(g), asked of the target slot's job list. The schedule is
// extracted in slot order and validated by sched.Validate before it is
// returned. When the greedy comes up short on some job (rare, but it
// happens on feasible input with non-unit jobs), the job's root window
// falls back to a flowfeas max-flow schedule of that root's jobs over
// all of its candidate slots, trimmed by the same deactivation sweep;
// the other roots keep their greedy placement. The event is counted in
// the comb_fallbacks metric.
package comb

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/flowfeas"
	"repro/internal/instance"
	"repro/internal/interval"
	"repro/internal/lamtree"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/trace"
)

// maxSlots bounds the slot universe (sum of root-window lengths) so
// per-slot arrays stay indexable by int32 and allocations bounded.
const maxSlots = 1 << 31

// Options tunes SolveContext.
type Options struct {
	// Metrics optionally supplies an external recorder; when nil the
	// solve gets a fresh one and Report.Stats covers exactly this
	// solve.
	Metrics *metrics.Recorder
	// Trace optionally receives the solve's spans; nil disables
	// tracing.
	Trace *trace.Tracer
	// CaptureWarm retains the final placement state on Report.Warm so
	// the solve cache can warm-start later near-miss requests.
	CaptureWarm bool
}

// Report describes what one combinatorial solve did.
type Report struct {
	// ActiveSlots is the objective value achieved.
	ActiveSlots int64
	// Activated counts slots opened by lazy activation (before the
	// deactivation sweep).
	Activated int64
	// Reused counts job units placed into already-active slots.
	Reused int64
	// Deactivated counts slots closed by the lazy-deactivation sweep.
	Deactivated int64
	// Fallback reports that the greedy came up short and the schedule
	// was rebuilt by the max-flow fallback (never expected on feasible
	// input; mirrored by the comb_fallbacks counter).
	Fallback bool
	// Depth is the laminar forest's maximum nesting depth.
	Depth int
	// Stats is the instrumentation snapshot when Options.Metrics was
	// nil.
	Stats *metrics.Stats
	// Warm is the retained placement snapshot when Options.CaptureWarm
	// was set.
	Warm *WarmState
	// Roots holds one entry per root window of the laminar forest, in
	// time order, which is also the order of the instance's
	// Components: the window's tree lower bound and the active slots
	// the schedule opens inside it. Where the two are equal, the
	// schedule is provably optimal on that component.
	Roots []RootEvidence
}

// RootEvidence is the optimality evidence for one forest component.
type RootEvidence struct {
	// Window is the root's job window; every slot of the component
	// lies inside it.
	Window interval.Interval
	// Bound is lamtree's lower bound for the root: no feasible
	// schedule opens fewer slots inside Window.
	Bound int64
	// Active counts the schedule's active slots inside Window.
	Active int64
}

// Solve runs the combinatorial solver with default options.
func Solve(in *instance.Instance) (*sched.Schedule, *Report, error) {
	return SolveContext(context.Background(), in, Options{})
}

// SolveContext runs the combinatorial solver. It requires nested
// (laminar) windows and returns a feasible validated schedule, an
// error for non-laminar or infeasible input, or ctx.Err() on
// cancellation (checked every placement block).
func SolveContext(ctx context.Context, in *instance.Instance, opts Options) (*sched.Schedule, *Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if err := in.Validate(); err != nil {
		return nil, nil, err
	}
	rec := opts.Metrics
	ownRec := rec == nil
	if ownRec {
		rec = new(metrics.Recorder)
	}
	rep := &Report{Depth: 1}
	if in.N() == 0 {
		if ownRec {
			rep.Stats = rec.Snapshot()
		}
		return sched.New(in.G), rep, nil
	}

	sp := opts.Trace.StartSpan("solve",
		trace.String("algorithm", "comb"), trace.Int("jobs", int64(in.N())))
	defer sp.End()

	stop := rec.StartStage(metrics.StageTreeBuild)
	tsp := sp.StartChild("tree_build")
	t, err := lamtree.Build(in)
	tsp.End()
	stop()
	if err != nil {
		return nil, nil, err
	}
	bounds := t.LowerBounds()
	for _, nd := range t.Nodes {
		if nd.Depth+1 > rep.Depth {
			rep.Depth = nd.Depth + 1
		}
	}
	sp.SetAttr(trace.Int("depth", int64(rep.Depth)), trace.Int("roots", int64(len(t.Roots))))

	st, err := newState(in, t)
	if err != nil {
		return nil, nil, err
	}

	stop = rec.StartStage(metrics.StageCombActivate)
	asp := sp.StartChild("comb_activate")
	short, err := st.place(ctx)
	asp.End()
	stop()
	if err != nil {
		return nil, nil, err
	}
	rep.Activated, rep.Reused = st.activated, st.reused

	if short {
		// The greedy could not place some job. Distinguish a genuinely
		// infeasible instance from a greedy failure: run the exact
		// max-flow feasibility schedule over the short roots' candidate
		// slots and, if one exists, adopt it (the deactivation sweep
		// below trims the all-open solution back down).
		rec.CombFallbacks.Inc()
		rep.Fallback = true
		fsp := sp.StartChild("comb_fallback")
		ferr := st.fallback()
		fsp.End()
		if ferr != nil {
			return nil, nil, fmt.Errorf("comb: %w", ferr)
		}
		rep.Activated = st.activated
	}

	stop = rec.StartStage(metrics.StageCombDeactivate)
	dsp := sp.StartChild("comb_deactivate")
	err = st.deactivate(ctx)
	dsp.End()
	stop()
	if err != nil {
		return nil, nil, err
	}
	rep.Deactivated = st.deactivated

	stop = rec.StartStage(metrics.StageValidate)
	vsp := sp.StartChild("validate")
	out := st.schedule()
	err = out.Validate(in)
	vsp.End()
	stop()
	if err != nil {
		return nil, nil, fmt.Errorf("comb: internal: schedule invalid: %w", err)
	}

	rec.CombActivations.Add(st.activated)
	rec.CombReused.Add(st.reused)
	rec.CombDeactivations.Add(st.deactivated)
	rep.ActiveSlots = out.NumActive()
	rep.Roots = make([]RootEvidence, len(t.Roots))
	for i, id := range t.Roots {
		rep.Roots[i] = RootEvidence{Window: st.roots[i], Bound: bounds[id], Active: st.activeIn(i)}
	}
	if opts.CaptureWarm {
		rep.Warm = st.captureWarm()
	}
	if ownRec {
		rep.Stats = rec.Snapshot()
	}
	return out, rep, nil
}

// state is the mutable placement state over the compressed slot
// universe: the concatenation of the laminar forest's root windows,
// which every job window is contained in.
type state struct {
	in    *instance.Instance
	roots []interval.Interval
	off   []int64 // off[i] = index of roots[i].Start; off[len] = total

	load     []int64   // jobs assigned per slot
	slotJobs [][]int32 // job IDs per slot (only active slots non-nil)
	jobLo    []int32   // per job, first slot index of its window
	jobHi    []int32   // per job, one past the last slot index
	jobSlots [][]int32 // per job, the slot indices it occupies

	inact *leftDSU // latest still-inactive slot ≤ t
	avail *predSet // active slots with load < g
	short []bool   // per root, some job came up short (nil until one does)

	activated, reused, deactivated int64
}

func newState(in *instance.Instance, t *lamtree.Tree) (*state, error) {
	st := &state{in: in}
	st.roots = make([]interval.Interval, len(t.Roots))
	st.off = make([]int64, len(t.Roots)+1)
	for i, id := range t.Roots {
		st.roots[i] = t.Nodes[id].K
		st.off[i+1] = st.off[i] + st.roots[i].Len()
	}
	total := st.off[len(st.roots)]
	if total > maxSlots {
		return nil, fmt.Errorf("comb: slot universe too large (%d slots under the root windows)", total)
	}
	n := int(total)
	st.load = make([]int64, n)
	st.slotJobs = make([][]int32, n)
	st.inact = newLeftDSU(n)
	st.avail = newPredSet(n)
	st.jobLo = make([]int32, in.N())
	st.jobHi = make([]int32, in.N())
	st.jobSlots = make([][]int32, in.N())
	for i, j := range in.Jobs {
		lo := st.indexOf(j.Release)
		st.jobLo[i] = int32(lo)
		st.jobHi[i] = int32(int64(lo) + (j.Deadline - j.Release))
	}
	return st, nil
}

// activeIn counts the active slots under the i-th root window.
func (st *state) activeIn(i int) int64 {
	var n int64
	for _, l := range st.load[st.off[i]:st.off[i+1]] {
		if l > 0 {
			n++
		}
	}
	return n
}

// rootOf returns the index of the root window holding slot index idx.
func (st *state) rootOf(idx int) int {
	return sort.Search(len(st.off)-1, func(k int) bool { return st.off[k+1] > int64(idx) })
}

// indexOf maps a time under some root window to its slot index.
func (st *state) indexOf(tm int64) int {
	r := sort.Search(len(st.roots), func(k int) bool { return st.roots[k].End > tm })
	return int(st.off[r] + (tm - st.roots[r].Start))
}

// innermostOrder sorts the given job indices innermost-first: by
// laminarity, at the moment a job is placed every earlier job whose
// window overlaps it is nested inside it, so reusing their active
// slots is always legal and never blocks a later (outer) job from
// slots only it can use.
func innermostOrder(in *instance.Instance, order []int) {
	slices.SortFunc(order, func(a, b int) int {
		ja, jb := in.Jobs[a], in.Jobs[b]
		return cmp.Or(
			cmp.Compare(ja.Deadline, jb.Deadline),
			cmp.Compare(jb.Release, ja.Release),
			cmp.Compare(jb.Processing, ja.Processing),
			cmp.Compare(a, b),
		)
	})
}

// place runs the lazy-activation pass over all jobs innermost-first.
// It returns short=true when some job could not gather enough distinct
// slots; st.short then marks the roots left to the fallback path.
func (st *state) place(ctx context.Context) (short bool, err error) {
	order := make([]int, st.in.N())
	for i := range order {
		order[i] = i
	}
	innermostOrder(st.in, order)
	return st.placeOrder(ctx, order)
}

// placeOrder runs the lazy-activation pass over the given jobs in the
// given order. A job that comes up short marks its root in st.short,
// and the rest of that root's jobs are skipped; other roots are placed
// as usual. The warm-start resume path reuses it to place only the
// delta's new jobs on top of a restored placement.
func (st *state) placeOrder(ctx context.Context, order []int) (short bool, err error) {
	in := st.in
	chosen := make([]int32, 0, 64)
	for k, ji := range order {
		if k&1023 == 1023 {
			if err := ctx.Err(); err != nil {
				return false, err
			}
		}
		j := in.Jobs[ji]
		lo, hi := int(st.jobLo[ji]), int(st.jobHi[ji])
		if short && st.short[st.rootOf(lo)] {
			continue
		}
		need := int(j.Processing)
		chosen = chosen[:0]
		// Reuse active non-full slots, latest first. The walk is
		// strictly decreasing, so the slots are distinct.
		for s := st.avail.pred(hi - 1); s >= lo && need > 0; s = st.avail.pred(s - 1) {
			chosen = append(chosen, int32(s))
			need--
		}
		st.reused += int64(len(chosen))
		// Lazily activate the latest inactive slots for the deficit.
		for s := st.inact.find(hi - 1); s >= lo && need > 0; {
			chosen = append(chosen, int32(s))
			need--
			st.inact.remove(s)
			st.avail.set(s)
			st.activated++
			s = st.inact.find(s - 1)
		}
		if need > 0 {
			if st.short == nil {
				st.short = make([]bool, len(st.roots))
			}
			st.short[st.rootOf(lo)] = true
			short = true
			continue
		}
		slots := make([]int32, len(chosen))
		copy(slots, chosen)
		st.jobSlots[ji] = slots
		for _, s := range chosen {
			si := int(s)
			st.load[si]++
			st.slotJobs[si] = append(st.slotJobs[si], int32(ji))
			if st.load[si] == in.G {
				st.avail.clear(si)
			}
		}
	}
	return short, nil
}

// fallback replaces the placement under every short root with a
// max-flow schedule of that root's jobs over all of its candidate slots
// and leaves the other roots' greedy placement as it is. It fails when
// the short roots' jobs admit no schedule at all: the instance is
// infeasible. Activated then counts every slot open before the
// deactivation sweep.
func (st *state) fallback() error {
	var jobs []instance.Job
	var back []int32
	for i, j := range st.in.Jobs {
		if st.short[st.rootOf(int(st.jobLo[i]))] {
			j.ID = len(jobs)
			jobs = append(jobs, j)
			back = append(back, int32(i))
			st.jobSlots[i] = nil
		}
	}
	for r, short := range st.short {
		if short {
			clear(st.load[st.off[r]:st.off[r+1]])
			clear(st.slotJobs[st.off[r]:st.off[r+1]])
		}
	}
	sub := &instance.Instance{G: st.in.G, Jobs: jobs}
	s, err := flowfeas.ScheduleOnSlots(sub, sub.SortedSlots())
	if err != nil {
		return err
	}
	for _, tm := range s.ActiveSlots() {
		ids := slices.Clone(s.Slots[tm])
		slices.Sort(ids)
		si := st.indexOf(tm)
		for _, local := range ids {
			ji := back[local]
			st.load[si]++
			st.slotJobs[si] = append(st.slotJobs[si], ji)
			st.jobSlots[ji] = append(st.jobSlots[ji], int32(si))
		}
	}
	// Rebuild the activation structures from the merged loads.
	n := len(st.load)
	st.inact = newLeftDSU(n)
	st.avail = newPredSet(n)
	st.activated = 0
	for si, l := range st.load {
		if l == 0 {
			continue
		}
		st.inact.remove(si)
		st.activated++
		if l < st.in.G {
			st.avail.set(si)
		}
	}
	return nil
}

// maxProbes bounds the predecessor-walk length when hunting a
// relocation target for one job unit, keeping the deactivation sweep
// O(n·maxProbes·log) while still catching the common case (the spare
// capacity is in a nearby slot of the same subtree).
const maxProbes = 32

// deactivate is the lazy-deactivation sweep: visit active slots
// lightest first and try to relocate all of their units into residual
// capacity of other active slots (within each job's window); a slot
// whose units all find homes is closed. Moves are committed only when
// the whole slot drains, so the sweep never increases the objective
// and preserves feasibility move by move.
//
// Every probe costs O(g): whether a job already holds a slot is asked
// of the slot's job list (at most g entries), never of the job's slot
// list (up to p_j entries); the two are kept in sync.
func (st *state) deactivate(ctx context.Context) error {
	cands := st.lightestFirst()

	type move struct {
		job int32
		to  int32
	}
	var moves []move
	pendAt := func(slot int32) int64 {
		var n int64
		for _, m := range moves {
			if m.to == slot {
				n++
			}
		}
		return n
	}
	jobHolds := func(ji, slot int32) bool {
		if slices.Contains(st.slotJobs[slot], ji) {
			return true
		}
		for _, m := range moves {
			if m.job == ji && m.to == slot {
				return true
			}
		}
		return false
	}

	var jobsHere []int32
	for k, c := range cands {
		if k&255 == 255 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		si := int(c)
		// Earlier closures may have raised this slot's load; recheck.
		if st.load[si] == 0 {
			continue
		}
		jobsHere = append(jobsHere[:0], st.slotJobs[si]...)
		slices.Sort(jobsHere)
		moves = moves[:0]
		ok := true
		for _, ji := range jobsHere {
			hi, lo := int(st.jobHi[ji]), int(st.jobLo[ji])
			target := -1
			probes := 0
			for s := st.avail.pred(hi - 1); s >= lo && probes < maxProbes; s = st.avail.pred(s - 1) {
				probes++
				if s == si || jobHolds(ji, int32(s)) {
					continue
				}
				if st.load[s]+pendAt(int32(s)) < st.in.G {
					target = s
					break
				}
			}
			if target < 0 {
				ok = false
				break
			}
			moves = append(moves, move{ji, int32(target)})
		}
		if !ok {
			continue
		}
		for _, m := range moves {
			ti := int(m.to)
			st.load[ti]++
			st.slotJobs[ti] = append(st.slotJobs[ti], m.job)
			if st.load[ti] == st.in.G {
				st.avail.clear(ti)
			}
			if x := slices.Index(st.jobSlots[m.job], c); x >= 0 {
				st.jobSlots[m.job][x] = m.to
			}
		}
		st.load[si] = 0
		st.slotJobs[si] = nil
		st.avail.clear(si)
		st.deactivated++
	}
	return nil
}

// lightestFirst lists the active slots by load, then by slot index: a
// stable counting sort over the loads present (at most min(g, n)
// distinct values), in O(slots + max load).
func (st *state) lightestFirst() []int32 {
	var maxLoad int64
	active := 0
	for _, l := range st.load {
		if l > 0 {
			active++
			maxLoad = max(maxLoad, l)
		}
	}
	// start[l] is the first output position of load l.
	start := make([]int, maxLoad+2)
	for _, l := range st.load {
		if l > 0 {
			start[l+1]++
		}
	}
	for l := 1; l < len(start); l++ {
		start[l] += start[l-1]
	}
	out := make([]int32, active)
	for si, l := range st.load {
		if l > 0 {
			out[start[l]] = int32(si)
			start[l]++
		}
	}
	return out
}

// schedule materializes the final assignment: one pre-sized map entry
// per active slot, each a sorted job list cut from one shared array
// (capped, so a later Assign to the slot copies instead of overwriting
// its neighbour). Slots are walked root by root in order, so each slot's
// time is a running offset rather than a search.
func (st *state) schedule() *sched.Schedule {
	active, units := 0, 0
	for _, l := range st.load {
		if l > 0 {
			active++
			units += int(l)
		}
	}
	out := &sched.Schedule{G: st.in.G, Slots: make(map[int64][]int, active)}
	ids := make([]int, units)
	for r, w := range st.roots {
		for si := st.off[r]; si < st.off[r+1]; si++ {
			jobs := st.slotJobs[si]
			if len(jobs) == 0 {
				continue
			}
			js := ids[:len(jobs):len(jobs)]
			ids = ids[len(jobs):]
			for k, ji := range jobs {
				js[k] = int(ji)
			}
			slices.Sort(js)
			out.Slots[w.Start+(si-st.off[r])] = js
		}
	}
	return out
}
