// Package sched defines concrete schedules for the active-time
// problem — an assignment of job units to integer slots — together
// with a full validity audit and the column-packing routine that turns
// per-window unit counts into per-slot assignments.
package sched

import (
	"fmt"
	"slices"

	"repro/internal/instance"
)

// Schedule assigns jobs to slots. Each occurrence of a job ID in
// Slots[t] is one unit of that job executed during slot t; a valid
// schedule never lists the same job twice in one slot.
type Schedule struct {
	// G is the machine capacity the schedule was built for.
	G int64
	// Slots maps a slot index to the IDs of jobs running in it.
	Slots map[int64][]int
}

// New returns an empty schedule for capacity g.
func New(g int64) *Schedule {
	return &Schedule{G: g, Slots: make(map[int64][]int)}
}

// Assign schedules one unit of job id in slot t.
func (s *Schedule) Assign(t int64, id int) {
	s.Slots[t] = append(s.Slots[t], id)
}

// ActiveSlots returns the sorted list of slots with at least one job.
func (s *Schedule) ActiveSlots() []int64 {
	out := make([]int64, 0, len(s.Slots))
	for t, js := range s.Slots {
		if len(js) > 0 {
			out = append(out, t)
		}
	}
	slices.Sort(out)
	return out
}

// NumActive returns the number of active slots — the active-time
// objective value.
func (s *Schedule) NumActive() int64 {
	var n int64
	for _, js := range s.Slots {
		if len(js) > 0 {
			n++
		}
	}
	return n
}

// Validate checks that the schedule is feasible for the instance:
// every job receives exactly p_j units, all inside its window, at most
// one unit per slot per job, and at most g jobs per slot.
func (s *Schedule) Validate(in *instance.Instance) error {
	n := in.N()
	got := make([]int64, n)
	// stamp[id] == visit marks job id as already seen in the slot being
	// visited; visit numbers start at 1, so the zeroed stamps mark none.
	stamp := make([]int, n)
	visit := 0
	for t, js := range s.Slots {
		if int64(len(js)) > in.G {
			return fmt.Errorf("sched: slot %d holds %d jobs > g=%d", t, len(js), in.G)
		}
		visit++
		for _, id := range js {
			if id < 0 || id >= n {
				return fmt.Errorf("sched: slot %d references unknown job %d", t, id)
			}
			if stamp[id] == visit {
				return fmt.Errorf("sched: job %d scheduled twice in slot %d", id, t)
			}
			stamp[id] = visit
			j := in.Jobs[id]
			if t < j.Release || t >= j.Deadline {
				return fmt.Errorf("sched: job %d scheduled at %d outside window [%d,%d)",
					id, t, j.Release, j.Deadline)
			}
			got[id]++
		}
	}
	for _, j := range in.Jobs {
		if got[j.ID] != j.Processing {
			return fmt.Errorf("sched: job %d received %d units, needs %d",
				j.ID, got[j.ID], j.Processing)
		}
	}
	return nil
}

// Demand is a request to place Units units of job ID into a block of
// interchangeable slots.
type Demand struct {
	ID    int
	Units int64
}

// PackColumns places the demands into the given slots subject to
// capacity g per slot and at most one unit of each job per slot. It
// requires each demand ≤ len(slots) and the total ≤ g·len(slots); it
// returns an error otherwise. The method is the wrap-around rule: lay
// all units consecutively in row-major order over a grid with one
// column per slot; any run of at most len(slots) consecutive cells
// touches distinct columns, and at most g rows are used.
func PackColumns(out *Schedule, slots []int64, g int64, demands []Demand) error {
	sN := int64(len(slots))
	if sN == 0 {
		if len(demands) == 0 {
			return nil
		}
		return fmt.Errorf("sched: demands but no slots")
	}
	var total int64
	for _, d := range demands {
		if d.Units < 0 {
			return fmt.Errorf("sched: negative demand for job %d", d.ID)
		}
		if d.Units > sN {
			return fmt.Errorf("sched: job %d demands %d units > %d slots", d.ID, d.Units, sN)
		}
		total += d.Units
	}
	if total > g*sN {
		return fmt.Errorf("sched: total demand %d exceeds capacity %d", total, g*sN)
	}
	var pos int64
	for _, d := range demands {
		for u := int64(0); u < d.Units; u++ {
			out.Assign(slots[pos%sN], d.ID)
			pos++
		}
	}
	return nil
}

// Relabel returns a copy of the schedule with every job ID i replaced
// by ids[i]. It translates a schedule between two labelings of the
// same job multiset — e.g. from the canonical job order a cached
// solve ran under back to the job order of the request being answered.
// IDs outside [0, len(ids)) panic: the schedule does not belong to an
// instance with len(ids) jobs.
func (s *Schedule) Relabel(ids []int) *Schedule {
	out := New(s.G)
	for t, js := range s.Slots {
		mapped := make([]int, len(js))
		for i, id := range js {
			mapped[i] = ids[id]
		}
		out.Slots[t] = mapped
	}
	return out
}

// Clone returns a deep copy of the schedule.
func (s *Schedule) Clone() *Schedule {
	out := New(s.G)
	for t, js := range s.Slots {
		cp := make([]int, len(js))
		copy(cp, js)
		out.Slots[t] = cp
	}
	return out
}

// String renders the schedule compactly, slot by slot.
func (s *Schedule) String() string {
	slots := s.ActiveSlots()
	str := fmt.Sprintf("schedule(g=%d, active=%d)", s.G, len(slots))
	for _, t := range slots {
		str += fmt.Sprintf("\n  t=%d: %v", t, s.Slots[t])
	}
	return str
}
