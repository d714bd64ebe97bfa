// Package instance defines active-time scheduling problem instances:
// a set of jobs with processing times and windows, plus the machine
// parallelism parameter g. It provides validation, classification
// (nested vs general), and canonical bounds used across the library.
package instance

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/interval"
)

// Job is a preemptible job with an integer processing time that must
// be scheduled within its half-open window [Release, Deadline).
type Job struct {
	// ID identifies the job; instances assign dense IDs 0..n-1.
	ID int
	// Processing is p_j >= 1, the number of slots the job needs.
	Processing int64
	// Release is r_j, the first slot the job may use.
	Release int64
	// Deadline is d_j; the job may use slots t with r_j <= t < d_j.
	Deadline int64
}

// Window returns the job's window [r_j, d_j).
func (j Job) Window() interval.Interval {
	return interval.Interval{Start: j.Release, End: j.Deadline}
}

// Slack returns the window length minus the processing time.
func (j Job) Slack() int64 { return (j.Deadline - j.Release) - j.Processing }

// Rigid reports whether the job fills its entire window, forcing every
// slot of the window open in any feasible schedule.
func (j Job) Rigid() bool { return j.Slack() == 0 }

func (j Job) String() string {
	return fmt.Sprintf("job %d: p=%d window=[%d,%d)", j.ID, j.Processing, j.Release, j.Deadline)
}

// Instance is an active-time scheduling instance.
type Instance struct {
	// G is the machine capacity: at most G jobs run in any one slot.
	G int64
	// Jobs holds the jobs; Validate requires Jobs[i].ID == i.
	Jobs []Job
}

// New builds an instance with dense job IDs assigned in order and
// validates it.
func New(g int64, jobs []Job) (*Instance, error) {
	in := &Instance{G: g, Jobs: make([]Job, len(jobs))}
	copy(in.Jobs, jobs)
	for i := range in.Jobs {
		in.Jobs[i].ID = i
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// MustNew is New but panics on invalid input; for tests and fixed
// constructions whose validity is established by code.
func MustNew(g int64, jobs []Job) *Instance {
	in, err := New(g, jobs)
	if err != nil {
		panic(err)
	}
	return in
}

// ErrInvalid wraps all instance validation failures.
var ErrInvalid = errors.New("instance: invalid")

// Validate checks structural validity: g >= 1, every job has
// p_j >= 1 and a window that can hold it, IDs are dense, and neither
// any r_j+p_j nor the horizon max d_j − min r_j overflows int64.
func (in *Instance) Validate() error {
	if in.G < 1 {
		return fmt.Errorf("%w: g=%d < 1", ErrInvalid, in.G)
	}
	var minR, maxD int64
	for i, j := range in.Jobs {
		if j.ID != i {
			return fmt.Errorf("%w: job at index %d has ID %d", ErrInvalid, i, j.ID)
		}
		if j.Processing < 1 {
			return fmt.Errorf("%w: job %d has processing %d < 1", ErrInvalid, i, j.Processing)
		}
		// A wrapped r+p would pass the window check below.
		if j.Release > math.MaxInt64-j.Processing {
			return fmt.Errorf("%w: job %d has r+p = %d+%d overflowing int64",
				ErrInvalid, i, j.Release, j.Processing)
		}
		if j.Deadline < j.Release+j.Processing {
			return fmt.Errorf("%w: job %d window [%d,%d) shorter than p=%d",
				ErrInvalid, i, j.Release, j.Deadline, j.Processing)
		}
		if i == 0 || j.Release < minR {
			minR = j.Release
		}
		if i == 0 || j.Deadline > maxD {
			maxD = j.Deadline
		}
	}
	// Solvers size slots and flow networks from window lengths and sums
	// of disjoint window lengths; the horizon bounds them all, so it
	// must fit in int64.
	if minR < 0 && maxD > math.MaxInt64+minR {
		return fmt.Errorf("%w: horizon [%d,%d) overflows int64", ErrInvalid, minR, maxD)
	}
	return nil
}

// N returns the number of jobs.
func (in *Instance) N() int { return len(in.Jobs) }

// Windows returns the window of every job, indexed by job ID.
func (in *Instance) Windows() []interval.Interval {
	ws := make([]interval.Interval, len(in.Jobs))
	for i, j := range in.Jobs {
		ws[i] = j.Window()
	}
	return ws
}

// Nested reports whether the instance's job windows form a laminar
// family (the special case the paper's algorithm handles).
func (in *Instance) Nested() bool {
	return interval.IsLaminar(in.Windows())
}

// Horizon returns the interval spanning all job windows; ok is false
// for an empty instance.
func (in *Instance) Horizon() (interval.Interval, bool) {
	return interval.Span(in.Windows())
}

// TotalProcessing returns the sum of all processing times.
func (in *Instance) TotalProcessing() int64 {
	var s int64
	for _, j := range in.Jobs {
		s += j.Processing
	}
	return s
}

// VolumeLowerBound returns ceil(total processing / g), a trivial lower
// bound on the number of active slots.
func (in *Instance) VolumeLowerBound() int64 {
	return ceilDiv(in.TotalProcessing(), in.G)
}

// MaxProcessingLowerBound returns max_j p_j, another trivial lower
// bound (a single job occupies p_j distinct slots).
func (in *Instance) MaxProcessingLowerBound() int64 {
	var m int64
	for _, j := range in.Jobs {
		if j.Processing > m {
			m = j.Processing
		}
	}
	return m
}

// LowerBound returns the better of the two trivial lower bounds.
func (in *Instance) LowerBound() int64 {
	v := in.VolumeLowerBound()
	if m := in.MaxProcessingLowerBound(); m > v {
		return m
	}
	return v
}

// Shift returns a copy of the instance with every window translated
// by delta. Active time is translation-invariant, so the optimum and
// every algorithm's behaviour are unchanged (used by metamorphic
// tests).
func (in *Instance) Shift(delta int64) *Instance {
	out := in.Clone()
	for i := range out.Jobs {
		out.Jobs[i].Release += delta
		out.Jobs[i].Deadline += delta
	}
	return out
}

// Permute returns a copy with jobs reordered by perm (a bijection on
// 0..n-1); IDs are re-densified. The objective is invariant under job
// order.
func (in *Instance) Permute(perm []int) *Instance {
	if len(perm) != in.N() {
		panic(fmt.Sprintf("instance: perm length %d != n=%d", len(perm), in.N()))
	}
	jobs := make([]Job, in.N())
	for i, p := range perm {
		jobs[i] = in.Jobs[p]
		jobs[i].ID = i
	}
	return &Instance{G: in.G, Jobs: jobs}
}

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	out := &Instance{G: in.G, Jobs: make([]Job, len(in.Jobs))}
	copy(out.Jobs, in.Jobs)
	return out
}

// SortedSlots returns, in increasing order, every slot index covered
// by at least one job window. Only these slots can ever be active.
func (in *Instance) SortedSlots() []int64 {
	seen := map[int64]bool{}
	for _, j := range in.Jobs {
		for t := j.Release; t < j.Deadline; t++ {
			seen[t] = true
		}
	}
	out := make([]int64, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Components splits the instance into independent sub-instances whose
// job-window spans are pairwise disjoint. Active-time decomposes over
// components, so solvers may process them separately. Job IDs are
// re-densified within each component; the second return value maps
// (component, local job ID) back to the original job ID.
func (in *Instance) Components() ([]*Instance, [][]int) {
	n := len(in.Jobs)
	if n == 0 {
		return nil, nil
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ja, jb := in.Jobs[order[a]], in.Jobs[order[b]]
		if ja.Release != jb.Release {
			return ja.Release < jb.Release
		}
		return ja.Deadline > jb.Deadline
	})

	var groups [][]int
	var cur []int
	curEnd := int64(0)
	for _, idx := range order {
		j := in.Jobs[idx]
		if len(cur) > 0 && j.Release >= curEnd {
			groups = append(groups, cur)
			cur = nil
		}
		cur = append(cur, idx)
		if j.Deadline > curEnd {
			curEnd = j.Deadline
		}
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}

	comps := make([]*Instance, len(groups))
	backmap := make([][]int, len(groups))
	for c, grp := range groups {
		jobs := make([]Job, len(grp))
		back := make([]int, len(grp))
		for k, idx := range grp {
			jobs[k] = in.Jobs[idx]
			jobs[k].ID = k
			back[k] = idx
		}
		comps[c] = &Instance{G: in.G, Jobs: jobs}
		backmap[c] = back
	}
	return comps, backmap
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("instance: ceilDiv by non-positive divisor")
	}
	return (a + b - 1) / b
}
