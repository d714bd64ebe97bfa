// Package server implements the activetimed solver service: the
// /solve request path (strict decoding, admission control, solve
// cache, cancellation-aware execution), /healthz, the Prometheus
// /metrics exposition, and the net/http/pprof endpoints. It is shared
// by cmd/activetimed (which serves it over a real listener), by
// cmd/atload's in-process mode, and by tests, so all three exercise
// the identical mux and handler code.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	rpprof "runtime/pprof"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	activetime "repro"
	"repro/internal/costmodel"
	"repro/internal/instance"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/solvecache"
	"repro/internal/trace"
)

// maxRequestBody bounds /solve request bodies (instances are small;
// 8 MiB leaves room for very large job sets).
const maxRequestBody = 8 << 20

// Config tunes the service's request path; DefaultConfig gives the
// production defaults, tests override individual knobs.
type Config struct {
	// DefaultWorkers is the per-solve forest worker-pool size used
	// when the request does not specify one.
	DefaultWorkers int
	// MaxInFlight bounds concurrently executing solves; ≤ 0 disables
	// admission control.
	MaxInFlight int
	// AdmissionWait is how long a request waits for an in-flight slot
	// before being shed with 429.
	AdmissionWait time.Duration
	// SolveTimeout caps each solve's wall time (0 = unlimited);
	// requests may only tighten it via timeout_ms.
	SolveTimeout time.Duration
	// CacheEntries sizes the canonicalized solve-result LRU; ≤ 0
	// disables caching and coalescing.
	CacheEntries int
	// CacheWarmBytes budgets the solver state retained on cache
	// entries for near-miss warm starts (raised g, nested job
	// supersets). ≤ 0 disables warm starts: results are still cached,
	// but no state is retained and every near-miss solves cold.
	CacheWarmBytes int64
	// MaxSolveMemBytes rejects with 422, before admission or queueing,
	// any solve whose estimated allocation exceeds this many bytes;
	// ≤ 0 disables the gate. The estimate
	// (costmodel.Profile.SolveBytes) is taken for the algorithm routing
	// settled on and covers the schedule (per unit of Σp), per-slot
	// structures over the slot universe (comb, all-open, exact) and the
	// LP tableau (nested95, and auto's certificate-first route). A cap
	// below the router's LP budget also tightens auto's LP choice. This
	// is the -max-solve-mem flag: a deep chain forced onto the LP, a
	// window of 10⁸ slots under comb or a job with p = 5·10⁷ must be
	// refused, not run the process out of memory.
	MaxSolveMemBytes int64

	// JobsMaxRunning bounds concurrently executing async jobs; ≤ 0
	// disables the job API entirely (the /jobs routes 404). Job
	// execution slots are deliberately separate from MaxInFlight: a
	// queue full of batch jobs cannot starve synchronous /solve
	// traffic, and vice versa — that is the admission split.
	JobsMaxRunning int
	// JobsMaxQueued bounds jobs waiting in the queue across classes.
	JobsMaxQueued int
	// JobsPolicy names the scheduling policy: fcfs | priority | sjf.
	// Unknown values fall back to fcfs (validate with
	// jobs.PolicyByName at flag-parsing time to reject them earlier).
	JobsPolicy string
	// JobsBudgets caps queued+running jobs per SLO class; missing or
	// zero entries are bounded only by JobsMaxQueued.
	JobsBudgets map[jobs.Class]int
	// CostModel predicts job cost for SJF ordering and the
	// predicted_cost_ns response field; nil uses the embedded model
	// fitted from BENCH_core.json.
	CostModel *costmodel.Model

	// EventRing sizes the wide-event in-memory ring behind
	// /debug/events; ≤ 0 disables the telemetry pipeline entirely
	// (the /debug/events, /debug/slo and /debug/traces routes 404).
	EventRing int
	// EventSink, when non-nil, receives every wide event as one JSON
	// line (the -events-file flag).
	EventSink io.Writer
	// TailSlow is the tail-sampling latency threshold: successful
	// requests at or above it retain their span trace at
	// /debug/traces/{request_id}. 0 retains only errored/shed requests.
	TailSlow time.Duration
	// TraceRetain bounds retained tail-sampled traces (default 64).
	TraceRetain int
	// SLOTarget names the objectives the in-server burn-rate tracker
	// measures live traffic against.
	SLOTarget obs.SLOConfig
}

// DefaultConfig returns the production defaults with the given
// per-solve worker-pool size.
func DefaultConfig(workers int) Config {
	return Config{
		DefaultWorkers:   workers,
		MaxInFlight:      16,
		AdmissionWait:    100 * time.Millisecond,
		SolveTimeout:     0,
		CacheEntries:     256,
		CacheWarmBytes:   64 << 20,
		MaxSolveMemBytes: 1 << 30,
		JobsMaxRunning:   2,
		JobsMaxQueued:    256,
		JobsPolicy:       "sjf",
		EventRing:        1024,
		TailSlow:         250 * time.Millisecond,
		TraceRetain:      64,
		SLOTarget:        obs.SLOConfig{LatencyObjectiveMS: 250, ErrorBudget: 0.01},
	}
}

// Server is the long-running solver service: request handling,
// structured logs, and the process-lifetime metrics registry behind
// /metrics.
type Server struct {
	reg    *metrics.Registry
	log    *slog.Logger
	cfg    Config
	sem    chan struct{} // in-flight slots; nil when unlimited
	cache  *solvecache.Group[*solveOutcome]
	queue  *jobs.Queue          // async job queue; nil when the job API is disabled
	cost   *costmodel.Model     // predicted-cost model for SJF and predicted_cost_ns
	corr   *costmodel.Corrector // online measured-vs-predicted EWMA correction
	obs    *obs.Pipeline        // wide-event pipeline; nil when EventRing ≤ 0
	build  obs.BuildInfo
	reqSeq atomic.Int64

	// draining flips when graceful shutdown begins: /healthz reports
	// "draining" with 503 so a cluster router ejects this replica
	// before the listener starts refusing connections.
	draining atomic.Bool

	// testHookBeforeSolve, when non-nil, runs at the head of every
	// solve execution with the solve's context. Tests use it to hold a
	// solve in flight deterministically; production leaves it nil.
	testHookBeforeSolve func(context.Context)
}

// New builds a Server. A nil log falls back to slog.Default().
func New(log *slog.Logger, cfg Config) *Server {
	if log == nil {
		log = slog.Default()
	}
	if cfg.DefaultWorkers < 1 {
		cfg.DefaultWorkers = 1
	}
	s := &Server{reg: metrics.NewRegistry(), log: log, cfg: cfg}
	if cfg.MaxInFlight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInFlight)
	}
	if cfg.CacheEntries > 0 {
		s.cache = solvecache.NewGroup[*solveOutcome](cfg.CacheEntries)
		s.cache.SetWarmBudget(cfg.CacheWarmBytes)
		s.reg.SetCacheStatsFunc(s.cache.CacheStats)
	}
	s.cost = cfg.CostModel
	if s.cost == nil {
		s.cost = costmodel.Default()
	}
	s.corr = costmodel.NewCorrector(costmodel.DefaultFeedbackAlpha)
	s.build = obs.CollectBuildInfo()
	s.obs = obs.New(obs.Config{
		RingSize:      cfg.EventRing,
		Sink:          cfg.EventSink,
		SlowThreshold: cfg.TailSlow,
		TraceRetain:   cfg.TraceRetain,
		SLO:           cfg.SLOTarget,
	})
	if cfg.JobsMaxRunning > 0 {
		policy, err := jobs.PolicyByName(cfg.JobsPolicy)
		if err != nil {
			// Callers validate the flag before building the Config;
			// surviving an unvalidated value beats crashing the service.
			log.Warn("unknown jobs policy, falling back to fcfs", "policy", cfg.JobsPolicy)
			policy = jobs.FCFS{}
		}
		s.queue = jobs.New(jobs.Config{
			MaxRunning: cfg.JobsMaxRunning,
			MaxQueued:  cfg.JobsMaxQueued,
			Budgets:    cfg.JobsBudgets,
			Policy:     policy,
			Observer:   s.reg,
			Terminal:   s.onJobTerminal,
		}, s.runJob)
	}
	return s
}

// Close drains the async job queue: queued jobs are shed, running
// solves are canceled, and workers are awaited up to ctx's deadline.
// Safe to call when the job API is disabled.
func (s *Server) Close(ctx context.Context) error {
	if s.queue == nil {
		return nil
	}
	return s.queue.Close(ctx)
}

// Registry exposes the server's process-lifetime metrics registry —
// the same one rendered on /metrics — so embedding callers (the
// binary's shutdown log line, atload's in-process report) can read
// counters directly.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Obs exposes the wide-event pipeline (nil when disabled) so embedding
// callers — atload's in-process cross-check, tests — can read the
// event ring and retained traces directly.
func (s *Server) Obs() *obs.Pipeline { return s.obs }

// Corrector exposes the online cost-model feedback state (read by
// /debug/costmodel and by tests).
func (s *Server) Corrector() *costmodel.Corrector { return s.corr }

// StartDraining marks the server as shutting down: /healthz flips to
// "draining" (503) so health probes eject this replica from routing
// while in-flight requests are still being served. Idempotent; there
// is deliberately no way back — a draining process is on its way out.
func (s *Server) StartDraining() { s.draining.Store(true) }

// Draining reports whether StartDraining has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Handler returns the service mux: /solve, /healthz, /metrics, the
// telemetry debug endpoints (/debug/events, /debug/slo,
// /debug/traces/{id}) and the net/http/pprof endpoints under
// /debug/pprof/.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", s.handleSolve)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	if s.queue != nil {
		mux.HandleFunc("POST /jobs", s.handleJobSubmit)
		mux.HandleFunc("GET /jobs/{id}", s.handleJobGet)
		mux.HandleFunc("DELETE /jobs/{id}", s.handleJobCancel)
		mux.HandleFunc("GET /jobs/{id}/events", s.handleJobEvents)
	}
	if s.obs.Enabled() {
		mux.HandleFunc("GET /debug/events", s.handleDebugEvents)
		mux.HandleFunc("GET /debug/slo", s.handleDebugSLO)
		mux.HandleFunc("GET /debug/traces/{id}", s.handleDebugTrace)
	}
	mux.HandleFunc("GET /debug/costmodel", s.handleDebugCostModel)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// SolveRequest is the /solve request body. Instance uses the same
// JSON shape as the CLI instance files: {"g": 2, "jobs": [{"p","r","d"}]}.
// Unknown fields anywhere in the body are rejected with 400.
type SolveRequest struct {
	Instance json.RawMessage `json:"instance"`
	// Algorithm defaults to nested95.
	Algorithm string `json:"algorithm,omitempty"`
	// Nested95 options (ignored by other algorithms).
	ExactLP    bool `json:"exact_lp,omitempty"`
	Minimalize bool `json:"minimalize,omitempty"`
	Compact    bool `json:"compact,omitempty"`
	Workers    int  `json:"workers,omitempty"`
	// TimeoutMS caps this solve's wall time in milliseconds; it can
	// only tighten the server's -solve-timeout, never extend it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// IncludeSchedule returns the full schedule in the response.
	IncludeSchedule bool `json:"include_schedule,omitempty"`
	// IncludeTrace runs the solve under a request-scoped span tracer
	// and returns the Chrome trace-event JSON inline. Traced requests
	// bypass the solve cache.
	IncludeTrace bool `json:"include_trace,omitempty"`
}

// SolveResponse is the /solve response body.
type SolveResponse struct {
	RequestID      string  `json:"request_id"`
	Algorithm      string  `json:"algorithm"`
	Jobs           int     `json:"jobs"`
	ActiveSlots    int64   `json:"active_slots"`
	LowerBound     int64   `json:"lower_bound,omitempty"` // certificate-first auto only; the gap is active_slots − lower_bound
	LPBound        float64 `json:"lp_bound,omitempty"`
	CertifiedRatio float64 `json:"certified_ratio,omitempty"`
	ElapsedMS      float64 `json:"elapsed_ms"`
	// Cached marks a response served from the solve cache; Stats then
	// describe the original solve that populated the entry.
	Cached bool `json:"cached,omitempty"`
	// WarmStart marks a result produced by resuming retained solver
	// state from a structurally similar cache entry; WarmKind is the
	// near-miss delta kind ("raise_g" or "superset"). Like Stats, both
	// describe the solve behind the result, so an exact cache hit on a
	// warm-solved entry reports them too.
	WarmStart bool               `json:"warm_start,omitempty"`
	WarmKind  string             `json:"warm_kind,omitempty"`
	Stats     *metrics.Stats     `json:"stats,omitempty"`
	Schedule  json.RawMessage    `json:"schedule,omitempty"`
	Trace     *trace.ChromeTrace `json:"trace,omitempty"`
}

// ErrorResponse is the uniform error body for every non-2xx outcome.
type ErrorResponse struct {
	RequestID string `json:"request_id"`
	Error     string `json:"error"`
}

func (s *Server) nextRequestID() string {
	return fmt.Sprintf("req-%06d", s.reqSeq.Add(1))
}

// RequestIDHeader carries a request id across hops: a cluster router
// stamps it on the forwarded request, the replica adopts it, and both
// sides' wide events share one id — which is what keeps the
// atload↔server event cross-check intact through a proxy.
const RequestIDHeader = "X-Request-ID"

// maxRequestIDLen bounds an inbound request id; anything longer (or
// containing non-printable bytes) is ignored and a fresh id generated.
const maxRequestIDLen = 128

// requestID resolves a request's id: the inbound X-Request-ID header
// when present and well-formed, a freshly generated one otherwise. The
// id is echoed on the response via the same header either way.
func (s *Server) requestID(r *http.Request) string {
	id := r.Header.Get(RequestIDHeader)
	if id == "" || len(id) > maxRequestIDLen {
		return s.nextRequestID()
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' {
			return s.nextRequestID()
		}
	}
	return id
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		s.log.Error("encode response", "err", err)
	}
}

// decodeRequest parses a request body strictly: the size limit maps
// to 413, unknown fields and malformed JSON to 400, and any bytes
// after the JSON object (beyond whitespace) to 400 — a request like
// {"instance":…}{"junk":1} used to silently drop the second object.
// Shared by /solve and POST /jobs.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, req any) (status int, msg string) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)
		}
		return http.StatusBadRequest, "decode request: " + err.Error()
	}
	if _, err := dec.Token(); err != io.EOF {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)
		}
		return http.StatusBadRequest, "trailing data after JSON request body"
	}
	return http.StatusOK, ""
}

// solveTimeout derives a request's effective solve deadline.
// timeout_ms can only tighten -solve-timeout: a value too large for
// the ms→Duration conversion (it would overflow int64 nanoseconds)
// cannot tighten anything, so it is ignored and the server cap stands.
func (s *Server) solveTimeout(req SolveRequest) time.Duration {
	timeout := s.cfg.SolveTimeout
	if req.TimeoutMS > 0 && req.TimeoutMS <= math.MaxInt64/int64(time.Millisecond) {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; timeout == 0 || d < timeout {
			timeout = d
		}
	}
	return timeout
}

// solveStatus maps a solve error to its HTTP status: cancellation
// (deadline, client disconnect) is 503, invalid input 400, everything
// else (infeasible, unknown algorithm, non-nested windows) 422.
func solveStatus(err error) int {
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	case errors.Is(err, instance.ErrInvalid):
		return http.StatusBadRequest
	default:
		return http.StatusUnprocessableEntity
	}
}

// route resolves AlgAuto through the router and checks the requested
// algorithm, returning the routing reason (empty unless the request
// asked for auto); p.alg stays AlgAuto on the certificate-first route.
// An unknown algorithm, or a solve whose estimated allocation
// (costmodel.Profile.SolveBytes for the algorithm routing settled on)
// exceeds -max-solve-mem, is an error the request is rejected with
// (422) before admission or queueing — never a solve that runs the
// process out of memory.
func (s *Server) route(p *plan) (string, error) {
	var reason string
	if p.alg == activetime.AlgAuto {
		var lim activetime.RouteLimits
		// An operator cap tighter than the router's default LP budget
		// also tightens routing, so auto never picks an LP the gate
		// would have refused.
		if c := s.cfg.MaxSolveMemBytes; c > 0 && c < activetime.DefaultRouteLimits().MaxLPTableauBytes {
			lim.MaxLPTableauBytes = c
		}
		dec := activetime.RouteProfile(p.prof, s.cost, lim)
		if dec.Algorithm == activetime.AlgAuto && (p.req.ExactLP || p.req.Minimalize || p.req.Compact) {
			// These options mean something only to the LP pipeline, so
			// such a request keeps it for the whole instance.
			dec.Algorithm, dec.Reason = activetime.AlgNested95, activetime.RouteReasonSmallNestedLP
		}
		p.alg, reason = dec.Algorithm, dec.Reason
	}
	if !slices.Contains(activetime.Algorithms(), p.alg) {
		return "", fmt.Errorf("activetime: unknown algorithm %q", p.alg)
	}
	if c := s.cfg.MaxSolveMemBytes; c > 0 {
		if est := p.prof.SolveBytes(string(p.alg)); est > c {
			msg := fmt.Sprintf("%s solve needs an estimated %d bytes (server cap %d)", p.alg, est, c)
			if p.alg == activetime.AlgNested95 && p.prof.LP().TableauBytes > c {
				msg += fmt.Sprintf(": its LP tableau alone needs at least %d bytes; use algorithm %q or %q",
					p.prof.LP().TableauBytes, activetime.AlgCombinatorial, activetime.AlgAuto)
			}
			return reason, errors.New(msg)
		}
	}
	return reason, nil
}

// retryAfterSeconds converts the configured admission wait into the
// whole-second Retry-After value for a 429: the wait rounded up,
// never below one second (clients should not hammer a saturated
// server on sub-second loops).
func retryAfterSeconds(wait time.Duration) int {
	secs := int(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// observeCancellation counts an aborted request under the right
// series: deadline expiries (timeout_ms / -solve-timeout) are solve
// timeouts, everything else — in practice client disconnects — is a
// cancellation. The two are operationally different signals.
func (s *Server) observeCancellation(err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.reg.SolveTimedOut()
	} else {
		s.reg.SolveCanceled()
	}
}

// plan is one request's prepared solve, shared by /solve and POST
// /jobs: prepare fills it from the body, run executes it (for /solve
// in the handler, for a job in the queue's runner).
type plan struct {
	reqID string
	log   *slog.Logger
	began time.Time
	// class labels profiles: "sync" for /solve, the SLO class for a job.
	class   string
	req     SolveRequest
	in      *instance.Instance
	prof    *costmodel.Profile
	alg     activetime.Algorithm
	workers int
	// tr is the request-scoped tracer: set for include_trace on /solve
	// and for every job (its spans feed the SSE stream and, for jobs,
	// tail sampling at the terminal state). Traced solves bypass the
	// cache; the response carries the trace only for include_trace.
	tr *trace.Tracer
	// sampleTr is /solve's tail-sampling tracer: unlike tr it does not
	// bypass the cache — a cache miss's flight records its spans here,
	// a hit or coalesced wait simply yields no solver spans.
	sampleTr *trace.Tracer
	// ev accumulates the request's wide event. Solve fields are written
	// only after the cache flight resolves, never from inside it
	// (detached flights outlive the request that opened them). A job's
	// event travels with the plan and is emitted at its terminal state.
	ev *obs.Event
	// relabel maps the result schedule's job IDs back to the request's
	// when the solve ran on the canonically sorted instance (a cached
	// or warm result); nil when the IDs are already the request's.
	relabel []int
}

// newPlan starts a request: it resolves and echoes the request id and
// opens the wide event.
func (s *Server) newPlan(w http.ResponseWriter, r *http.Request, path string) *plan {
	reqID := s.requestID(r)
	w.Header().Set(RequestIDHeader, reqID)
	began := time.Now()
	return &plan{
		reqID: reqID,
		log:   s.log.With("request_id", reqID),
		began: began,
		ev:    &obs.Event{RequestID: reqID, Path: path, StartUnixNS: began.UnixNano()},
	}
}

// prepare fills p from a /solve or POST /jobs body: strict decoding,
// instance validation, the job class (POST /jobs only), the algorithm
// and worker defaults, the instance profile, routing with the
// -max-solve-mem gate and the name check, and the wide event's shape
// fields. A status other than 200 rejects the request with msg.
func (s *Server) prepare(w http.ResponseWriter, r *http.Request, p *plan) (int, string) {
	reject := func(reason string, status int, msg string) (int, string) {
		p.log.Warn("request rejected", "reason", reason, "status", status, "err", msg)
		return status, msg
	}
	async := p.ev.Path == obs.PathAsync
	// /solve decodes only the SolveRequest part, so a "class" field
	// there is an unknown field.
	var body JobRequest
	var dst any = &body.SolveRequest
	if async {
		dst = &body
	}
	if status, msg := s.decodeRequest(w, r, dst); status != http.StatusOK {
		return reject("bad_body", status, msg)
	}
	p.req = body.SolveRequest
	if len(p.req.Instance) == 0 {
		return reject("no_instance", http.StatusBadRequest, "missing instance")
	}
	in, err := instance.ReadJSON(bytes.NewReader(p.req.Instance))
	if err != nil {
		return reject("invalid_instance", http.StatusBadRequest, "invalid instance: "+err.Error())
	}
	p.in = in
	p.class = "sync"
	if async {
		class := jobs.Class(body.Class)
		if body.Class == "" {
			class = jobs.ClassBatch
		}
		if !class.Valid() {
			return reject("bad_class", http.StatusBadRequest,
				fmt.Sprintf("unknown class %q (want interactive | batch | best_effort)", body.Class))
		}
		p.class = string(class)
		p.ev.Class = p.class
	}
	p.alg = activetime.Algorithm(p.req.Algorithm)
	if p.req.Algorithm == "" {
		p.alg = activetime.AlgAuto
	}
	p.workers = p.req.Workers
	if p.workers < 1 {
		p.workers = s.cfg.DefaultWorkers
	}
	p.prof = costmodel.NewProfile(in)
	reason, routeErr := s.route(p)
	p.ev.Algorithm = string(p.alg)
	p.ev.RouteReason = reason
	p.ev.Jobs = p.prof.Jobs
	p.ev.G = in.G
	p.ev.Depth = p.prof.Depth
	p.ev.Family = p.prof.Family
	// The raw model output: the corrector's Observe needs it uncorrected.
	p.ev.PredictedCostNS = s.cost.PredictAlgNS(p.prof.Family, string(p.alg), p.prof.Jobs, p.prof.Depth)
	if routeErr != nil {
		return reject("route", http.StatusUnprocessableEntity, routeErr.Error())
	}
	return http.StatusOK, ""
}

// fail resolves a request with an error body and stamps the event's
// terminal fields from the same status and message.
func (s *Server) fail(w http.ResponseWriter, p *plan, status int, msg string) {
	p.ev.Status = obs.StatusForHTTP(status, msg, false)
	p.ev.HTTPStatus = status
	p.ev.Error = msg
	s.writeJSON(w, status, ErrorResponse{p.reqID, msg})
}

// run executes a prepared plan under ctx for /solve and the job runner
// alike: profiler labels, executeSolve, the error-to-status mapping and
// the response. It stamps the event's outcome; a non-nil error comes
// with its HTTP status.
func (s *Server) run(ctx context.Context, p *plan) (*SolveResponse, int, error) {
	p.log.Info("solve start", "class", p.class, "algorithm", string(p.alg),
		"jobs", p.in.N(), "g", p.in.G, "workers", p.workers)
	start := time.Now()
	var res *activetime.Result
	var cached bool
	var warmKind string
	var err error
	// Goroutine labels segment CPU/heap profiles by workload class.
	rpprof.Do(ctx, rpprof.Labels(
		"request_id", p.reqID, "class", p.class, "algorithm", string(p.alg), "family", p.prof.Family,
	), func(ctx context.Context) {
		res, cached, warmKind, err = s.executeSolve(ctx, p)
	})
	elapsed := time.Since(start)

	if err != nil {
		status := solveStatus(err)
		if status == http.StatusServiceUnavailable {
			s.observeCancellation(err)
		}
		p.log.Warn("solve failed", "err", err, "status", status, "elapsed_ms", ms(elapsed))
		p.ev.Status = obs.StatusForHTTP(status, err.Error(), false)
		p.ev.Error = err.Error()
		return nil, status, err
	}
	out := s.buildSolveResponse(p, res, cached, warmKind, elapsed)
	p.ev.Status = obs.StatusForHTTP(http.StatusOK, "", cached)
	p.ev.ActiveSlots = res.ActiveSlots
	p.log.Info("solve done", "algorithm", string(res.Algorithm), "active_slots", res.ActiveSlots,
		"cached", cached, "warm_kind", warmKind, "elapsed_ms", out.ElapsedMS)
	return &out, http.StatusOK, nil
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.reg.RequestStarted()
	defer s.reg.RequestFinished()

	// One wide event per request, emitted when the outcome is final.
	// The sampling tracer shadows every request so tail sampling has a
	// full span trace to retain when the outcome turns out interesting;
	// a request-level root span brackets the whole handler.
	p := s.newPlan(w, r, obs.PathSync)
	var rootSpan *trace.Span
	if s.obs.Enabled() {
		p.sampleTr = trace.New()
		rootSpan = p.sampleTr.StartSpan("request", trace.String("request_id", p.reqID))
	}
	defer func() {
		elapsed := time.Since(p.began)
		p.ev.ElapsedMS = ms(elapsed)
		if p.sampleTr != nil && s.obs.ShouldRetain(p.ev.Status, elapsed) {
			rootSpan.End()
			s.obs.RetainTrace(p.reqID, p.sampleTr.Spans())
			p.ev.TraceSampled = true
		}
		s.obs.Emit(p.ev)
	}()

	if r.Method != http.MethodPost {
		p.log.Warn("request rejected", "reason", "method", "method", r.Method)
		s.fail(w, p, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if status, msg := s.prepare(w, r, p); status != http.StatusOK {
		s.fail(w, p, status, msg)
		return
	}
	if p.req.IncludeTrace {
		p.tr = trace.New()
	}

	// The request context carries client disconnects; layer the solve
	// deadline on top.
	ctx := r.Context()
	if timeout := s.solveTimeout(p.req); timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	// Admission control: take an in-flight slot, waiting briefly for
	// one to free up before shedding.
	p.ev.Admission = obs.AdmissionAdmitted
	if s.sem != nil {
		select {
		case s.sem <- struct{}{}:
		default:
			s.reg.AdmissionWaitStarted()
			waitStart := time.Now()
			wait := time.NewTimer(s.cfg.AdmissionWait)
			select {
			case s.sem <- struct{}{}:
				s.reg.AdmissionWaitFinished()
				wait.Stop()
				p.ev.QueueWaitMS = ms(time.Since(waitStart))
			case <-wait.C:
				s.reg.AdmissionWaitFinished()
				s.reg.AdmissionShed()
				p.ev.Admission = obs.AdmissionShed
				p.ev.QueueWaitMS = ms(time.Since(waitStart))
				p.log.Warn("request rejected", "reason", "saturated", "max_inflight", s.cfg.MaxInFlight)
				w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSeconds(s.cfg.AdmissionWait)))
				s.fail(w, p, http.StatusTooManyRequests, "server saturated: too many solves in flight")
				return
			case <-ctx.Done():
				s.reg.AdmissionWaitFinished()
				wait.Stop()
				s.observeCancellation(ctx.Err())
				p.ev.QueueWaitMS = ms(time.Since(waitStart))
				p.log.Warn("solve canceled", "reason", "ctx_during_admission", "err", ctx.Err())
				s.fail(w, p, http.StatusServiceUnavailable, ctx.Err().Error())
				return
			}
		}
		defer func() { <-s.sem }()
	}

	out, status, err := s.run(ctx, p)
	if err != nil {
		s.fail(w, p, status, err.Error())
		return
	}
	p.ev.HTTPStatus = http.StatusOK
	s.writeSolveResponse(w, out)
}

// writeSolveResponse writes a 200 with the body writeJSON would write,
// built by appendSolveResponse.
func (s *Server) writeSolveResponse(w http.ResponseWriter, out *SolveResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	body, err := appendSolveResponse(make([]byte, 0, 1024+len(out.Schedule)), out)
	if err == nil {
		_, err = w.Write(body)
	}
	if err != nil {
		s.log.Error("encode response", "err", err)
	}
}

// appendSolveResponse appends json.Encoder's encoding of out to b
// without letting encoding/json re-scan the schedule, which is already
// compact JSON: it encodes the envelope without the schedule and the
// trace and splices both back in, in field order (they are the last two
// fields). The trace is marshalled on its own, HTML-escaped as the
// encoder would.
func appendSolveResponse(b []byte, out *SolveResponse) ([]byte, error) {
	env := *out
	env.Schedule, env.Trace = nil, nil
	buf := bytes.NewBuffer(b)
	if err := json.NewEncoder(buf).Encode(&env); err != nil {
		return nil, err
	}
	b = buf.Bytes()
	b = b[:len(b)-len("}\n")]
	if len(out.Schedule) > 0 {
		b = append(b, `,"schedule":`...)
		b = append(b, out.Schedule...)
	}
	if out.Trace != nil {
		tb, err := json.Marshal(out.Trace)
		if err != nil {
			return nil, err
		}
		b = append(b, `,"trace":`...)
		b = append(b, tb...)
	}
	return append(b, "}\n"...), nil
}

// solveOutcome is the solve cache's value: the shared result plus the
// wall time of the solve that produced it, so cache hits can report
// the original measured cost against the cost model's prediction.
type solveOutcome struct {
	res     *activetime.Result
	solveNS int64
	// warmKind and warmFallback describe the flight that produced the
	// result: the delta kind of a warm resume ("raise_g"/"superset",
	// empty for cold), and whether a warm attempt failed before the
	// cold solve ran.
	warmKind     string
	warmFallback bool
	// warm is the retained solver state future near-miss requests can
	// resume; the solve cache strips it under the warm-byte budget via
	// the WarmCarrier interface.
	warm atomic.Pointer[activetime.WarmState]
}

// WarmBytes and StripWarm implement solvecache.WarmCarrier.
func (o *solveOutcome) WarmBytes() int64 { return o.warm.Load().SizeBytes() }
func (o *solveOutcome) StripWarm()       { o.warm.Store(nil) }

// warmEligible reports whether a solve may participate in warm
// starts: the cache must exist with a warm budget, and the algorithm
// must be the combinatorial solver, the only one that retains
// resumable state (its activation forest).
func (s *Server) warmEligible(p *plan) bool {
	return s.cache != nil && s.cfg.CacheWarmBytes > 0 && p.alg == activetime.AlgCombinatorial
}

// tryWarmSolve scans structurally similar cache entries for retained
// warm state whose base instance is a classified near-miss of canonIn
// (canonical job order), and resumes the first match. It returns a
// completed outcome on success; on a state mismatch the candidate's
// warm state is stripped (so the same key cannot fall back twice), the
// fallback counted, and fellBack returned true — the caller solves
// cold.
func (s *Server) tryWarmSolve(ctx context.Context, canonIn *instance.Instance, p *plan, structKey solvecache.Key, capture bool) (out *solveOutcome, fellBack bool) {
	for _, ck := range s.cache.Similar(structKey) {
		cand, ok := s.cache.Peek(ck)
		if !ok || cand == nil {
			continue
		}
		w := cand.warm.Load()
		if w == nil {
			continue
		}
		d := activetime.ClassifyDelta(w.Base, canonIn)
		if d.Kind == activetime.WarmNone {
			continue
		}
		tr := p.tr
		if tr == nil {
			tr = p.sampleTr
		}
		start := time.Now()
		res, err := activetime.SolveWarmCtx(ctx, canonIn, w, d, activetime.SolveOptions{
			Trace:       tr,
			CaptureWarm: capture,
		})
		took := time.Since(start)
		if err != nil {
			if errors.Is(err, activetime.ErrWarmMismatch) {
				// Corrupt or stale retained state: drop it so the next
				// near-miss on this entry solves cold once instead of
				// falling back forever.
				s.cache.StripWarmKey(ck)
				s.reg.WarmFallback()
				fellBack = true
			}
			if ctx.Err() != nil {
				break // canceled: the cold path would fail the same way
			}
			continue
		}
		// A successful resume is a completed solve; failed attempts are
		// only warm-fallback events (the cold solve that follows is the
		// one counted).
		s.reg.SolveStarted()
		s.reg.ObserveSolve(res.Stats, took, nil)
		s.reg.WarmStart(string(d.Kind))
		o := &solveOutcome{res: res, solveNS: took.Nanoseconds(), warmKind: string(d.Kind), warmFallback: fellBack}
		o.warm.Store(res.Warm)
		res.Warm = nil
		return o, fellBack
	}
	return nil, fellBack
}

// executeSolve runs one solve through the shared path: registry
// accounting, the canonicalization-keyed cache (bypassed for traced
// solves, whose spans belong to a single request), near-miss warm
// starts, and the relabeling (p.relabel) of results solved in canonical
// job order. It returns the result, whether it was served from cache, and
// the warm-start kind ("" for a cold solve).
func (s *Server) executeSolve(ctx context.Context, p *plan) (*activetime.Result, bool, string, error) {
	useCache := s.cache != nil && p.tr == nil
	warmable := s.warmEligible(p)

	// The key canonicalizes the instance (job order and IDs do not
	// matter) plus everything that changes the result; the worker
	// count does not (results are identical at any parallelism).
	// Cached and warm results must serve every job ordering that maps
	// to the key, so they are solved on the canonically sorted instance
	// and each request relabels the schedule back to its own job IDs.
	// One sort serves both keys and the relabeling.
	var canon solvecache.Canonical
	var canonIn *instance.Instance
	var key, structK solvecache.Key
	if useCache || warmable {
		canon = solvecache.Canonicalize(p.in)
		canonIn = p.in.Permute(canon.Order)
		alg, flags := string(p.alg), []bool{p.req.ExactLP, p.req.Minimalize, p.req.Compact}
		if useCache {
			key = canon.Key(alg, flags...)
		}
		if warmable {
			structK = canon.StructKey(alg, flags...)
		}
	}

	// runSolve executes one real cold solve of solveIn under the given
	// context (the request's, or — when coalesced behind the cache — a
	// flight context detached from any single request) and folds its
	// outcome into the registry. capture retains warm state on the
	// outcome for future near-miss requests.
	runSolve := func(ctx context.Context, solveIn *instance.Instance, capture bool) (*solveOutcome, error) {
		s.reg.SolveStarted()
		if h := s.testHookBeforeSolve; h != nil {
			h(ctx)
		}
		tr := p.tr
		if tr == nil {
			tr = p.sampleTr
		}
		start := time.Now()
		var res *activetime.Result
		var err error
		switch p.alg {
		case activetime.AlgNested95:
			res, err = activetime.SolveNested95Ctx(ctx, solveIn, activetime.SolveOptions{
				ExactLP:    p.req.ExactLP,
				Minimalize: p.req.Minimalize,
				Compact:    p.req.Compact,
				Workers:    p.workers,
				Trace:      tr,
			})
		case activetime.AlgCombinatorial:
			res, err = activetime.SolveCombinatorialCtx(ctx, solveIn, activetime.SolveOptions{
				Trace:       tr,
				CaptureWarm: capture,
			})
		case activetime.AlgAuto:
			res, err = activetime.SolveCertificateFirstCtx(ctx, solveIn, activetime.SolveOptions{
				Workers: p.workers,
				Trace:   tr,
			})
		default:
			res, err = activetime.SolveTracedCtx(ctx, solveIn, p.alg, tr)
		}
		took := time.Since(start)
		var stats *metrics.Stats
		if res != nil {
			stats = res.Stats
		}
		s.reg.ObserveSolve(stats, took, err)
		out := &solveOutcome{res: res, solveNS: took.Nanoseconds()}
		if res != nil && res.Warm != nil {
			out.warm.Store(res.Warm)
			res.Warm = nil
		}
		return out, err
	}

	// solve resumes a similar entry's warm state when it can and solves
	// cold otherwise. A cached flight solves the canonical instance and
	// retains warm state; a cache bypass retains nothing (its outcome is
	// never cached) and solves the request's own job order cold. After a
	// fallback the cold outcome (with its fresh warm state) replaces the
	// stripped entry under this key, so the same near-miss never falls
	// back twice.
	solve := func(ctx context.Context) (*solveOutcome, error) {
		var fellBack bool
		if warmable {
			wout, fb := s.tryWarmSolve(ctx, canonIn, p, structK, useCache)
			if wout != nil {
				return wout, nil
			}
			fellBack = fb
		}
		solveIn := p.in
		if useCache {
			solveIn = canonIn
		}
		out, err := runSolve(ctx, solveIn, useCache && warmable)
		if out != nil {
			out.warmFallback = fellBack
		}
		return out, err
	}

	var out *solveOutcome
	var err error
	cached := false
	cacheOutcome, keyHex := obs.CacheOff, ""
	if !useCache {
		// Traced solves bypass the cache (their spans belong to one
		// request) but can still resume similar entries' warm state —
		// this is how async jobs, which always trace for their SSE
		// stream, get warm starts.
		if s.cache != nil {
			cacheOutcome = obs.CacheBypass
		}
		out, err = solve(ctx)
	} else {
		var outcome solvecache.Outcome
		out, outcome, err = s.cache.DoIndexed(ctx, key, structK, solve)
		cacheOutcome, keyHex = obs.CacheMiss, fmt.Sprintf("%x", key)
		switch outcome {
		case solvecache.Hit:
			s.reg.CacheHit()
			cached = true
			cacheOutcome = obs.CacheHit
		case solvecache.Miss:
			s.reg.CacheMiss()
		case solvecache.Coalesced:
			s.reg.CacheCoalesced()
			cacheOutcome = obs.CacheCoalesced
		}
	}
	s.fillEvent(p, cacheOutcome, keyHex, out, err)
	if err != nil || out == nil {
		return nil, cached, "", err
	}
	if useCache || out.warmKind != "" {
		// The result is in canonical job order and, when cached, shared
		// across requests: the encoder maps the IDs back as it writes.
		p.relabel = canon.Order
	}
	return out.res, cached, out.warmKind, nil
}

// fillEvent stamps the solve's observability fields once the outcome
// is known (on the caller's goroutine, never from inside a flight).
func (s *Server) fillEvent(p *plan, cacheOutcome, key string, out *solveOutcome, err error) {
	ev := p.ev
	ev.Cache = cacheOutcome
	ev.CacheKey = key
	if err != nil || out == nil {
		return
	}
	ev.MeasuredNS = out.solveNS
	ev.SolveMS = float64(out.solveNS) / 1e6
	if out.warmKind != "" {
		ev.WarmStart = true
		ev.WarmKind = out.warmKind
		// Re-predict with the warm discount so the event's
		// predicted-vs-measured comparison describes the solve that
		// actually ran.
		ev.PredictedCostNS = s.cost.PredictWarmNS(
			p.prof.Family, string(p.alg), out.warmKind, p.prof.Jobs, p.prof.Depth)
	}
	ev.WarmFallback = out.warmFallback
	if out.res != nil {
		// Name the solver behind the schedule: a certificate-first solve
		// is routed as auto but produced by comb or nested95.
		ev.Algorithm = string(out.res.Algorithm)
		ev.LowerBound = out.res.LowerBound
		ev.FillStats(out.res.Stats)
	}
	// Feed fresh cold solves (not cache hits — solveNS there is the
	// original flight's, already observed once — and not warm resumes,
	// whose cost the cold-fitted model cannot explain) back into the
	// cost-model corrector. PredictedCostNS is the raw model output,
	// which is what Observe requires.
	if out.warmKind == "" {
		switch cacheOutcome {
		case obs.CacheMiss, obs.CacheOff, obs.CacheBypass:
			s.corr.Observe(p.prof.Family, string(p.alg), ev.PredictedCostNS, out.solveNS)
		}
	}
}

// buildSolveResponse assembles the wire response for a successful
// solve; for a job it becomes the stored result.
func (s *Server) buildSolveResponse(p *plan, res *activetime.Result, cached bool, warmKind string, elapsed time.Duration) SolveResponse {
	out := SolveResponse{
		RequestID:      p.reqID,
		Algorithm:      string(res.Algorithm),
		Jobs:           p.in.N(),
		ActiveSlots:    res.ActiveSlots,
		LowerBound:     res.LowerBound,
		LPBound:        res.LPLowerBound,
		CertifiedRatio: res.CertifiedRatio,
		ElapsedMS:      float64(elapsed.Microseconds()) / 1e3,
		Cached:         cached,
		WarmStart:      warmKind != "",
		WarmKind:       warmKind,
		Stats:          res.Stats,
	}
	if p.req.IncludeSchedule {
		out.Schedule = res.Schedule.AppendJSONRelabeled(nil, p.relabel)
	}
	// Jobs always trace (for their SSE stream); the response carries
	// the trace only when the client asked for it.
	if p.req.IncludeTrace {
		out.Trace = &trace.ChromeTrace{TraceEvents: p.tr.ChromeEvents(), DisplayUnit: "ms"}
	}
	return out
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// A draining replica still answers health checks but advertises the
	// state with a 503 so a cluster router ejects it before the
	// listener closes and forwards start failing with connection
	// refused.
	if s.draining.Load() {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":     "draining",
			"solves":     s.reg.Solves(),
			"version":    s.build.Version,
			"go_version": s.build.GoVersion,
			"commit":     s.build.Commit,
		})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"solves":     s.reg.Solves(),
		"version":    s.build.Version,
		"go_version": s.build.GoVersion,
		"commit":     s.build.Commit,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		s.log.Error("write metrics", "err", err)
	}
	obs.WriteBuildInfoPrometheus(w, s.build)
	s.obs.WritePrometheus(w)
}

// handleDebugCostModel serves the online cost-model feedback state:
// the EWMA alpha and every learned (family, algorithm) correction
// factor with its sample count.
func (s *Server) handleDebugCostModel(w http.ResponseWriter, r *http.Request) {
	factors := s.corr.Snapshot()
	if factors == nil {
		factors = []costmodel.FactorSnapshot{}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"alpha":   s.corr.Alpha(),
		"factors": factors,
	})
}

// handleDebugEvents serves the wide-event ring, oldest first.
// Query parameters: status, class, path (exact matches) and limit
// (keep only the newest N).
func (s *Server) handleDebugEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.writeJSON(w, http.StatusBadRequest, ErrorResponse{"", "limit must be a non-negative integer"})
			return
		}
		limit = n
	}
	page := s.obs.Events(obs.EventFilter{
		Status: q.Get("status"),
		Class:  q.Get("class"),
		Path:   q.Get("path"),
		Limit:  limit,
	})
	s.writeJSON(w, http.StatusOK, page)
}

// handleDebugSLO serves the rolling burn-rate windows.
func (s *Server) handleDebugSLO(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.obs.SLOSummary())
}

// handleDebugTrace serves a tail-sampled trace as Chrome trace-event
// JSON (loadable in chrome://tracing / Perfetto).
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ct, ok := s.obs.Trace(id)
	if !ok {
		s.writeJSON(w, http.StatusNotFound, ErrorResponse{id, "no retained trace for request"})
		return
	}
	s.writeJSON(w, http.StatusOK, ct)
}
