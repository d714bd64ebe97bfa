package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
)

// jobsServer builds a server with the job API enabled (1 execution
// slot so queueing behavior is deterministic) and ensures the queue is
// drained at test end.
func jobsServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DefaultWorkers == 0 {
		cfg.DefaultWorkers = 1
	}
	if cfg.JobsMaxRunning == 0 {
		cfg.JobsMaxRunning = 1
	}
	s, ts, _ := testServerCfg(t, cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("close job queue: %v", err)
		}
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJob(t *testing.T, ts *httptest.Server, id string) (int, JobStatusResponse) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatusResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st
}

func pollJobTerminal(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) JobStatusResponse {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		code, st := getJob(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("GET /jobs/%s: status %d", id, code)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not terminal after %v (state %v)", id, timeout, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJobSubmitPollResult: the async path produces the same solve
// result as the synchronous path, reachable by polling.
func TestJobSubmitPollResult(t *testing.T) {
	_, ts := jobsServer(t, Config{JobsPolicy: "fcfs"})

	resp, data := postJob(t, ts, fmt.Sprintf(`{"instance":%s,"class":"interactive","include_schedule":true}`, smallInstance))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs status %d: %s", resp.StatusCode, data)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.JobID == "" || sub.Class != jobs.ClassInteractive || sub.State != jobs.StateQueued {
		t.Fatalf("submit response %+v", sub)
	}
	if sub.PredictedCostNS <= 0 {
		t.Errorf("PredictedCostNS = %d, want > 0", sub.PredictedCostNS)
	}
	if sub.CostFamily != "laminar" {
		t.Errorf("CostFamily = %q, want laminar", sub.CostFamily)
	}
	if sub.Policy != "fcfs" {
		t.Errorf("Policy = %q, want fcfs", sub.Policy)
	}

	st := pollJobTerminal(t, ts, sub.JobID, 10*time.Second)
	if st.State != jobs.StateDone {
		t.Fatalf("state = %v (%s), want done", st.State, st.Error)
	}
	if st.Result == nil {
		t.Fatal("done job carries no result")
	}
	// Cross-check against the synchronous path.
	sresp, sdata := postSolve(t, ts, fmt.Sprintf(`{"instance":%s}`, smallInstance))
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("sync solve: %d %s", sresp.StatusCode, sdata)
	}
	var sync SolveResponse
	if err := json.Unmarshal(sdata, &sync); err != nil {
		t.Fatal(err)
	}
	if st.Result.ActiveSlots != sync.ActiveSlots {
		t.Errorf("async active_slots = %d, sync = %d", st.Result.ActiveSlots, sync.ActiveSlots)
	}
	if len(st.Result.Schedule) == 0 {
		t.Error("include_schedule ignored by job path")
	}
}

// TestJobEventsSSE: the events stream carries the lifecycle state
// transitions and at least one solver span, then ends at the terminal
// event.
func TestJobEventsSSE(t *testing.T) {
	_, ts := jobsServer(t, Config{})

	resp, data := postJob(t, ts, fmt.Sprintf(`{"instance":%s}`, smallInstance))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs status %d: %s", resp.StatusCode, data)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}

	es, err := http.Get(ts.URL + "/jobs/" + sub.JobID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer es.Body.Close()
	if es.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", es.StatusCode)
	}
	if ct := es.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type %q", ct)
	}

	var states []jobs.State
	spans := 0
	sc := bufio.NewScanner(es.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev jobs.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		switch ev.Kind {
		case "state":
			states = append(states, ev.State)
		case "span":
			spans++
		}
	}
	// The server ends the stream after the terminal event, so Scan
	// terminating (rather than hanging) is itself part of the test.
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(states) < 3 || states[0] != jobs.StateQueued || states[1] != jobs.StateRunning ||
		!states[len(states)-1].Terminal() {
		t.Errorf("state sequence %v, want queued,running,…,terminal", states)
	}
	if states[len(states)-1] != jobs.StateDone {
		t.Errorf("final state %v, want done", states[len(states)-1])
	}
	if spans == 0 {
		t.Error("no solver span events in the SSE stream")
	}
}

// TestJobCancelRunning: DELETE on a running job cancels the solve's
// context; the job resolves to canceled.
func TestJobCancelRunning(t *testing.T) {
	started := make(chan struct{}, 1)
	s, ts := jobsServer(t, Config{})
	s.testHookBeforeSolve = func(ctx context.Context) {
		started <- struct{}{}
		<-ctx.Done() // hold the solve until canceled
	}

	resp, data := postJob(t, ts, fmt.Sprintf(`{"instance":%s}`, smallInstance))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d %s", resp.StatusCode, data)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+sub.JobID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var cr JobCancelResponse
	if err := json.NewDecoder(dresp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK || cr.JobID != sub.JobID {
		t.Fatalf("DELETE: %d %+v", dresp.StatusCode, cr)
	}

	st := pollJobTerminal(t, ts, sub.JobID, 10*time.Second)
	if st.State != jobs.StateCanceled {
		t.Fatalf("state after cancel = %v, want canceled", st.State)
	}
}

// TestJobAdmissionShed: a class over its admission budget is rejected
// with 429 + Retry-After and no job record; the job queue's budget is
// independent of the /solve in-flight limit.
func TestJobAdmissionShed(t *testing.T) {
	release := make(chan struct{})
	s, ts := jobsServer(t, Config{
		JobsBudgets: map[jobs.Class]int{jobs.ClassBestEffort: 1},
	})
	s.testHookBeforeSolve = func(ctx context.Context) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	defer close(release)

	body := fmt.Sprintf(`{"instance":%s,"class":"best_effort"}`, smallInstance)
	resp1, data1 := postJob(t, ts, body)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", resp1.StatusCode, data1)
	}
	resp2, data2 := postJob(t, ts, body)
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget submit: %d %s, want 429", resp2.StatusCode, data2)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// The budget does not bleed across classes.
	resp3, data3 := postJob(t, ts, fmt.Sprintf(`{"instance":%s,"class":"interactive"}`, smallInstance))
	if resp3.StatusCode != http.StatusAccepted {
		t.Fatalf("interactive submit under best_effort budget: %d %s", resp3.StatusCode, data3)
	}
}

// TestJobQueuedThenShed: a queued best-effort job evicted by a
// higher-class arrival reaches the "shed" terminal state, observable
// via GET — the queued-then-shed outcome, distinct from a 429.
func TestJobQueuedThenShed(t *testing.T) {
	release := make(chan struct{})
	s, ts := jobsServer(t, Config{JobsMaxQueued: 1})
	s.testHookBeforeSolve = func(ctx context.Context) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	defer close(release)

	// First job occupies the single execution slot; second fills the
	// one-deep queue.
	if resp, data := postJob(t, ts, fmt.Sprintf(`{"instance":%s,"class":"batch"}`, smallInstance)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", resp.StatusCode, data)
	}
	resp2, data2 := postJob(t, ts, fmt.Sprintf(`{"instance":%s,"class":"best_effort"}`, smallInstance))
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d %s", resp2.StatusCode, data2)
	}
	var queued JobSubmitResponse
	if err := json.Unmarshal(data2, &queued); err != nil {
		t.Fatal(err)
	}

	// Interactive arrival into the full queue evicts the queued
	// best-effort job.
	resp3, data3 := postJob(t, ts, fmt.Sprintf(`{"instance":%s,"class":"interactive"}`, smallInstance))
	if resp3.StatusCode != http.StatusAccepted {
		t.Fatalf("interactive submit: %d %s", resp3.StatusCode, data3)
	}
	code, st := getJob(t, ts, queued.JobID)
	if code != http.StatusOK || st.State != jobs.StateShed {
		t.Fatalf("evicted job: status %d state %v, want 200/shed", code, st.State)
	}
	if st.Error == "" {
		t.Error("shed job carries no reason")
	}
}

// TestJobValidation: submissions with a bad class are rejected with
// 400 before touching the queue (TestSolveErrors covers the bodies both
// endpoints reject); unknown ids are 404 everywhere.
func TestJobValidation(t *testing.T) {
	_, ts := jobsServer(t, Config{})

	for name, body := range map[string]string{
		"missing instance with class": `{"class":"batch"}`,
		"bad class":                   fmt.Sprintf(`{"instance":%s,"class":"platinum"}`, smallInstance),
	} {
		if resp, data := postJob(t, ts, body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, data)
		}
	}

	if code, _ := getJob(t, ts, "job-999999"); code != http.StatusNotFound {
		t.Errorf("GET unknown job: %d, want 404", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/job-999999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown job: %d, want 404", resp.StatusCode)
	}
	eresp, err := http.Get(ts.URL + "/jobs/job-999999/events")
	if err != nil {
		t.Fatal(err)
	}
	eresp.Body.Close()
	if eresp.StatusCode != http.StatusNotFound {
		t.Errorf("events for unknown job: %d, want 404", eresp.StatusCode)
	}
}

// TestJobAPIDisabled: with JobsMaxRunning ≤ 0 the routes do not exist.
func TestJobAPIDisabled(t *testing.T) {
	_, ts, _ := testServerCfg(t, Config{DefaultWorkers: 1})
	resp, _ := postJob(t, ts, fmt.Sprintf(`{"instance":%s}`, smallInstance))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /jobs with job API disabled: %d, want 404", resp.StatusCode)
	}
}

// TestJobMetricsExposed: completing a job shows up in the per-class
// Prometheus series.
func TestJobMetricsExposed(t *testing.T) {
	s, ts := jobsServer(t, Config{})
	resp, data := postJob(t, ts, fmt.Sprintf(`{"instance":%s,"class":"interactive"}`, smallInstance))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	pollJobTerminal(t, ts, sub.JobID, 10*time.Second)

	if got := s.Registry().JobsSubmitted("interactive"); got != 1 {
		t.Errorf("JobsSubmitted(interactive) = %d, want 1", got)
	}
	if got := s.Registry().JobsCompleted("interactive", "done"); got != 1 {
		t.Errorf("JobsCompleted(interactive, done) = %d, want 1", got)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mdata), `activetime_jobs_completed_total{class="interactive",outcome="done"} 1`) {
		t.Error("per-class job series missing from /metrics")
	}
}
