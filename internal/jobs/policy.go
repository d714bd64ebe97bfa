package jobs

import "fmt"

// Policy decides which queued job runs next. Less reports whether a
// should run before b; every policy falls back to submission order so
// the total order is deterministic.
type Policy interface {
	Name() string
	Less(a, b *Job) bool
}

// FCFS runs jobs strictly in submission order.
type FCFS struct{}

func (FCFS) Name() string        { return "fcfs" }
func (FCFS) Less(a, b *Job) bool { return a.seq < b.seq }

// PriorityFCFS runs higher classes first, FCFS within a class.
type PriorityFCFS struct{}

func (PriorityFCFS) Name() string { return "priority" }
func (PriorityFCFS) Less(a, b *Job) bool {
	if pa, pb := a.class.Priority(), b.class.Priority(); pa != pb {
		return pa > pb
	}
	return a.seq < b.seq
}

// SJF runs the job with the smallest predicted cost first (shortest-
// predicted-job-first), FCFS on ties — this is what turns the
// cost prediction into head-of-line-blocking avoidance: a 2 ms
// interactive solve never waits behind a queued 30 s batch solve.
type SJF struct{}

func (SJF) Name() string { return "sjf" }
func (SJF) Less(a, b *Job) bool {
	if a.predictedNS != b.predictedNS {
		return a.predictedNS < b.predictedNS
	}
	return a.seq < b.seq
}

// PolicyByName resolves a policy from its flag value.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "fcfs", "":
		return FCFS{}, nil
	case "priority", "priority-fcfs":
		return PriorityFCFS{}, nil
	case "sjf":
		return SJF{}, nil
	}
	return nil, fmt.Errorf("jobs: unknown policy %q (want fcfs | priority | sjf)", name)
}
