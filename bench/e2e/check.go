package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/instance"
	"repro/internal/sched"
	"repro/internal/server"
)

// checked is one sampled response that passed the output checks,
// decoded; the replay probes reuse it.
type checked struct {
	body  []byte
	in    *instance.Instance
	resp  server.SolveResponse
	sched *sched.Schedule
}

// checkReport is the outcome of the output checks.
type checkReport struct {
	checked int
	failed  map[int64]bool // request sequence numbers whose check failed
	first   error
	ok      []checked // the first keepOK passing samples, in sequence order
}

// checkOutputs decodes every retained response and checks its schedule
// against the instance the request carried: the schedule validates,
// its active-slot count equals active_slots, and active_slots is at
// least the instance's lower bound.
func checkOutputs(reqs []request, kept map[int64][]byte, keepOK int) *checkReport {
	rep := &checkReport{failed: map[int64]bool{}}
	seqs := make([]int64, 0, len(kept))
	for s := range kept {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(a, b int) bool { return seqs[a] < seqs[b] })
	for _, seq := range seqs {
		rep.checked++
		c, err := checkOne(reqs[seq%int64(len(reqs))].body, kept[seq])
		if err != nil {
			rep.failed[seq] = true
			if rep.first == nil {
				rep.first = fmt.Errorf("request %d: %w", seq, err)
			}
			continue
		}
		if len(rep.ok) < keepOK {
			rep.ok = append(rep.ok, *c)
		}
	}
	return rep
}

func checkOne(reqBody, respBody []byte) (*checked, error) {
	var req server.SolveRequest
	if err := json.Unmarshal(reqBody, &req); err != nil {
		return nil, fmt.Errorf("decode request: %w", err)
	}
	in, err := instance.ReadJSON(bytes.NewReader(req.Instance))
	if err != nil {
		return nil, fmt.Errorf("decode instance: %w", err)
	}
	c := &checked{body: reqBody, in: in}
	if err := json.Unmarshal(respBody, &c.resp); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	if len(c.resp.Schedule) == 0 {
		return nil, fmt.Errorf("response carries no schedule")
	}
	if c.sched, err = sched.ReadJSON(bytes.NewReader(c.resp.Schedule)); err != nil {
		return nil, err
	}
	if err := c.sched.Validate(in); err != nil {
		return nil, err
	}
	if got := c.sched.NumActive(); got != c.resp.ActiveSlots {
		return nil, fmt.Errorf("schedule has %d active slots, response says %d", got, c.resp.ActiveSlots)
	}
	if lb := in.LowerBound(); c.resp.ActiveSlots < lb {
		return nil, fmt.Errorf("active_slots %d below the lower bound %d", c.resp.ActiveSlots, lb)
	}
	return c, nil
}
