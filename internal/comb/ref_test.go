package comb

import (
	"context"
	"sort"

	"repro/internal/instance"
	"repro/internal/sched"
)

// The sweep and schedule extraction as they were before the
// counting-sort rewrite, kept verbatim as the reference that
// FuzzSweepMatchesReference compares the production versions against:
// candidates ordered by sort.Slice, jobHolds answered by scanning the
// job's slot list, and the schedule built one Assign at a time.

// timeOf maps a slot index back to its time coordinate.
func (st *state) timeOf(idx int) int64 {
	r := st.rootOf(idx)
	return st.roots[r].Start + (int64(idx) - st.off[r])
}

func (st *state) deactivateRef(ctx context.Context) error {
	type cand struct {
		load int64
		slot int32
	}
	var cands []cand
	for si, l := range st.load {
		if l > 0 {
			cands = append(cands, cand{l, int32(si)})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].load != cands[b].load {
			return cands[a].load < cands[b].load
		}
		return cands[a].slot < cands[b].slot
	})

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
		for _, s := range st.jobSlots[ji] {
			if s == slot {
				return true
			}
		}
		for _, m := range moves {
			if m.job == ji && m.to == slot {
				return true
			}
		}
		return false
	}

	for k, c := range cands {
		if k&255 == 255 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		si := int(c.slot)
		// Earlier closures may have raised this slot's load; recheck.
		if st.load[si] == 0 {
			continue
		}
		jobsHere := append([]int32(nil), st.slotJobs[si]...)
		sort.Slice(jobsHere, func(a, b int) bool { return jobsHere[a] < jobsHere[b] })
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
			for x, s := range st.jobSlots[m.job] {
				if s == c.slot {
					st.jobSlots[m.job][x] = m.to
					break
				}
			}
		}
		st.load[si] = 0
		st.slotJobs[si] = nil
		st.avail.clear(si)
		st.deactivated++
	}
	return nil
}

func (st *state) scheduleRef() *sched.Schedule {
	out := sched.New(st.in.G)
	for si, jobs := range st.slotJobs {
		if len(jobs) == 0 {
			continue
		}
		js := append([]int32(nil), jobs...)
		sort.Slice(js, func(a, b int) bool { return js[a] < js[b] })
		tm := st.timeOf(si)
		for _, ji := range js {
			out.Assign(tm, int(ji))
		}
	}
	return out
}

// innermostOrderRef is the sort.Slice job order innermostOrder
// replaced.
func innermostOrderRef(in *instance.Instance, order []int) {
	sort.Slice(order, func(a, b int) bool {
		ja, jb := in.Jobs[order[a]], in.Jobs[order[b]]
		if ja.Deadline != jb.Deadline {
			return ja.Deadline < jb.Deadline
		}
		if ja.Release != jb.Release {
			return ja.Release > jb.Release
		}
		if ja.Processing != jb.Processing {
			return ja.Processing > jb.Processing
		}
		return order[a] < order[b]
	})
}
