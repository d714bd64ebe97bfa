// Job API: the asynchronous solve surface. POST /jobs admits a solve
// into the SLO-class job queue and returns immediately with an id;
// GET /jobs/{id} polls status (and carries the solve result once
// done); DELETE /jobs/{id} cancels; GET /jobs/{id}/events streams the
// job's progress — state transitions and finished solver spans — as
// server-sent events.
//
// Job execution deliberately does not take a /solve in-flight slot:
// the queue's MaxRunning is a separate capacity, so heavy batch jobs
// can never starve the synchronous interactive path (and vice versa).
// Every job runs under a request-scoped tracer so the SSE stream can
// carry solver-stage progress; traced solves bypass the solve cache,
// which is the same trade /solve makes for include_trace.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/trace"
)

// JobRequest is the POST /jobs body: a /solve request plus an SLO
// class. An empty class defaults to batch.
type JobRequest struct {
	SolveRequest
	Class string `json:"class,omitempty"`
}

// JobSubmitResponse is the 202 body returned by POST /jobs.
type JobSubmitResponse struct {
	RequestID string     `json:"request_id"`
	JobID     string     `json:"job_id"`
	State     jobs.State `json:"state"`
	Class     jobs.Class `json:"class"`
	// PredictedCostNS is the cost model's estimate for this solve; the
	// sjf policy orders the queue by it.
	PredictedCostNS int64  `json:"predicted_cost_ns"`
	CostFamily      string `json:"cost_family"`
	Policy          string `json:"policy"`
}

// JobStatusResponse is the GET /jobs/{id} body: the queue's status
// snapshot, plus the solve response once the job is done.
type JobStatusResponse struct {
	jobs.Status
	Result *SolveResponse `json:"result,omitempty"`
}

// JobCancelResponse is the DELETE /jobs/{id} body; State is the job's
// state after the cancellation request (a running job resolves to
// canceled asynchronously).
type JobCancelResponse struct {
	JobID string     `json:"job_id"`
	State jobs.State `json:"state"`
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	// The job's wide event: on admission it travels with the plan and
	// is emitted at the terminal state; a rejected submission is itself
	// the terminal outcome, so the event is emitted here.
	p := s.newPlan(w, r, obs.PathAsync)
	admitted := false
	defer func() {
		if !admitted {
			p.ev.ElapsedMS = ms(time.Since(p.began))
			s.obs.Emit(p.ev)
		}
	}()
	if status, msg := s.prepare(w, r, p); status != http.StatusOK {
		s.fail(w, p, status, msg)
		return
	}
	// The event keeps the raw model output; the queue and the client see
	// the corrected estimate, which is what SJF ordering and capacity
	// planning want.
	predicted := s.corr.Apply(p.prof.Family, string(p.alg), p.ev.PredictedCostNS)
	// Stamped before Submit: once the job is admitted, the worker may
	// reach the terminal state (and touch ev) at any moment, so the
	// handler must not write ev afterwards. The terminal callback adds
	// the job id.
	p.ev.Admission = obs.AdmissionQueued
	j, err := s.queue.Submit(jobs.Class(p.class), predicted, p)
	if err != nil {
		switch {
		case errors.Is(err, jobs.ErrShedAdmission):
			p.log.Warn("job shed", "reason", "admission", "class", p.class, "err", err)
			p.ev.Admission = obs.AdmissionShed
			w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSeconds(s.cfg.AdmissionWait)))
			s.fail(w, p, http.StatusTooManyRequests, err.Error())
		case errors.Is(err, jobs.ErrClosed):
			p.ev.Admission = obs.AdmissionShed
			s.fail(w, p, http.StatusServiceUnavailable, err.Error())
		default:
			p.ev.Admission = ""
			s.fail(w, p, http.StatusBadRequest, err.Error())
		}
		return
	}
	admitted = true
	p.log.Info("job submitted", "job_id", j.ID(), "class", p.class,
		"family", p.prof.Family, "predicted_ns", predicted, "jobs", p.in.N(), "g", p.in.G)
	s.writeJSON(w, http.StatusAccepted, JobSubmitResponse{
		RequestID:       p.reqID,
		JobID:           j.ID(),
		State:           jobs.StateQueued,
		Class:           jobs.Class(p.class),
		PredictedCostNS: predicted,
		CostFamily:      p.prof.Family,
		Policy:          s.queue.Policy().Name(),
	})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.queue.Get(id)
	if !ok {
		s.writeJSON(w, http.StatusNotFound, ErrorResponse{id, "unknown job"})
		return
	}
	resp := JobStatusResponse{Status: st}
	if sr, ok := st.Result.(*SolveResponse); ok {
		resp.Result = sr
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	state, ok := s.queue.Cancel(id)
	if !ok {
		s.writeJSON(w, http.StatusNotFound, ErrorResponse{id, "unknown job"})
		return
	}
	s.log.Info("job cancel requested", "job_id", id, "state", state)
	s.writeJSON(w, http.StatusOK, JobCancelResponse{JobID: id, State: state})
}

// handleJobEvents streams a job's progress events as SSE. Each event
// is written as "event: <kind>\ndata: <Event JSON>\n\n"; the stream
// ends after the terminal state event, or when the client disconnects.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.queue.Get(id); !ok {
		s.writeJSON(w, http.StatusNotFound, ErrorResponse{id, "unknown job"})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeJSON(w, http.StatusInternalServerError, ErrorResponse{id, "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	cursor := 0
	for {
		evs, changed, ok := s.queue.Events(id, cursor)
		if !ok {
			return // evicted from retention mid-stream
		}
		terminal := false
		for _, ev := range evs {
			data, err := json.Marshal(ev)
			if err != nil {
				s.log.Error("encode job event", "job_id", id, "err", err)
				return
			}
			// A failed write means the client is gone (disconnect
			// mid-replay); stop the stream instead of pumping events
			// into a broken connection until the job terminates.
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Kind, data); err != nil {
				s.log.Debug("job event stream closed by client", "job_id", id, "err", err)
				return
			}
			if ev.Kind == "state" && ev.State.Terminal() {
				terminal = true
			}
		}
		if len(evs) > 0 {
			cursor += len(evs)
			flusher.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// runJob executes one queued job through the same run step as /solve,
// under the job's cancellation context and the configured solve
// timeout, with finished solver spans fed into the job's event stream
// as they complete.
func (s *Server) runJob(ctx context.Context, j *jobs.Job) (any, error) {
	p := j.Payload().(*plan)
	if timeout := s.solveTimeout(p.req); timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	// Feed finished spans into the job's SSE stream while the solve
	// runs; a final flush after completion catches the tail. The same
	// tracer backs tail sampling at the terminal state (the write is
	// ordered before the terminal transition by the worker goroutine,
	// which calls complete only after runJob returns).
	tr := trace.New()
	p.tr = tr
	emitted := 0
	flush := func() {
		spans := tr.Spans()
		for _, sp := range spans[emitted:] {
			j.EmitSpan(sp.Name, sp.Duration)
		}
		emitted = len(spans)
	}
	stop := make(chan struct{})
	feederDone := make(chan struct{})
	go func() {
		defer close(feederDone)
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				flush()
			}
		}
	}()

	p.log.Info("job start", "job_id", j.ID(), "predicted_ns", j.PredictedNS())
	out, _, err := s.run(ctx, p)
	close(stop)
	<-feederDone
	flush()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// onJobTerminal is the queue's Terminal callback: it finalizes and
// emits the job's wide event at the exact instant the terminal state
// becomes observable to pollers. Called with the queue lock held, so
// it must not call back into the queue; the obs pipeline takes only
// its own locks.
func (s *Server) onJobTerminal(j *jobs.Job, state jobs.State, detail string, wait, exec, total time.Duration) {
	p, ok := j.Payload().(*plan)
	if !ok {
		return
	}
	ev := p.ev
	ev.JobID = j.ID()
	ev.QueueWaitMS = ms(wait)
	ev.ElapsedMS = ms(total)
	switch state {
	case jobs.StateShed:
		// Accepted, then evicted from the queue (pressure or shutdown)
		// — the async-only outcome the sync path cannot produce.
		ev.Status = obs.StatusShedQueued
		ev.Error = detail
	case jobs.StateCanceled:
		if ev.Status == "" { // canceled while queued: runJob never ran
			ev.Status = obs.StatusCanceled
			ev.Error = detail
		}
	case jobs.StateFailed:
		if ev.Status == "" {
			ev.Status = obs.StatusServerErr
			ev.Error = detail
		}
	}
	// StateDone: runJob already stamped ok/cached and the solve fields.
	if s.obs.ShouldRetain(ev.Status, total) {
		if spans := p.tr.Spans(); len(spans) > 0 {
			s.obs.RetainTrace(ev.RequestID, spans)
			ev.TraceSampled = true
		}
	}
	s.obs.Emit(ev)
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
