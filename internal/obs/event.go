// Package obs is the wide-event telemetry subsystem for the solver
// service: every request — synchronous /solve or asynchronous job —
// produces exactly one canonical structured Event carrying the whole
// decision context (admission outcome, cache outcome, algorithm and
// instance shape, per-stage timings, solver counters, predicted vs
// measured cost, final status). Events land in a bounded in-memory
// ring (served on /debug/events) and, optionally, a JSONL sink.
//
// On top of the event stream the Pipeline derives two aggregate
// views: tail-sampled exemplar traces (full span traces retained only
// for slow, errored, or shed requests) and rolling multi-window SLO
// burn-rate counters (1m/10m/1h, exported as activetime_slo_* gauges).
//
// A nil *Pipeline is the disabled pipeline: every method is a cheap
// no-op, so call sites thread it unconditionally.
package obs

import (
	"strings"

	"repro/internal/metrics"
)

// EventSchema identifies the wide-event JSON shape; bump on breaking
// field changes. The field set and ordering are pinned by the golden
// test in this package.
const EventSchema = "activetime-event/v1"

// Request paths.
const (
	PathSync  = "sync"  // synchronous POST /solve
	PathAsync = "async" // job API (POST /jobs → terminal state)
)

// Event statuses. The strings deliberately mirror the loadgen client's
// outcome classes so a server-side event log and a client-side trace
// of the same run can be matched row for row.
const (
	StatusOK         = "ok"
	StatusCached     = "cached"
	StatusShed       = "shed"        // rejected at admission (429)
	StatusShedQueued = "shed_queued" // async: accepted, then evicted from the queue
	StatusTimeout    = "timeout"     // solve deadline expired (503)
	StatusCanceled   = "canceled"    // client disconnect or job cancellation
	StatusClientErr  = "client_error"
	StatusServerErr  = "server_error"
)

// Admission outcomes.
const (
	AdmissionAdmitted = "admitted" // ran (or began running) immediately
	AdmissionQueued   = "queued"   // async: accepted into the job queue
	AdmissionShed     = "shed"     // rejected at admission
)

// Cache outcomes.
const (
	CacheHit       = "hit"
	CacheMiss      = "miss"
	CacheCoalesced = "coalesced"
	CacheBypass    = "bypass" // traced request, cache deliberately skipped
	CacheOff       = "off"    // cache disabled by configuration
)

// Event is the canonical wide event: one per request or job, emitted
// at the moment the outcome is final. Field order is the wire order
// (encoding/json preserves struct order) and is pinned by the schema
// golden test; add new fields at the end of their section.
type Event struct {
	Schema    string `json:"schema"`
	RequestID string `json:"request_id"`
	JobID     string `json:"job_id,omitempty"`
	Path      string `json:"path"`
	Class     string `json:"class,omitempty"` // SLO class (async only)

	// StartUnixNS stamps when the server began handling the request.
	StartUnixNS int64 `json:"start_unix_ns"`

	Status     string `json:"status"`
	HTTPStatus int    `json:"http_status,omitempty"`
	Error      string `json:"error,omitempty"`

	Admission   string  `json:"admission,omitempty"`
	QueueWaitMS float64 `json:"queue_wait_ms,omitempty"`

	Cache    string `json:"cache,omitempty"`
	CacheKey string `json:"cache_key,omitempty"` // canonical solve-cache key (hex)

	// Warm-start outcome: WarmStart marks a request answered by
	// resuming retained solver state from a near-miss cache entry,
	// WarmKind the delta kind ("raise_g" or "superset"), WarmFallback a
	// warm attempt that failed and fell back to a cold solve.
	WarmStart    bool   `json:"warm_start,omitempty"`
	WarmKind     string `json:"warm_kind,omitempty"`
	WarmFallback bool   `json:"warm_fallback,omitempty"`

	// Instance shape and algorithm selection. RouteReason explains an
	// auto-routed request's concrete algorithm choice (one of the
	// activetime.RouteReason constants); empty when the client named an
	// algorithm explicitly.
	Algorithm   string `json:"algorithm,omitempty"`
	RouteReason string `json:"route_reason,omitempty"`
	Jobs        int    `json:"jobs,omitempty"`
	G           int64  `json:"g,omitempty"`
	Depth       int    `json:"depth,omitempty"`
	Family      string `json:"family,omitempty"`

	ActiveSlots int64 `json:"active_slots,omitempty"`
	// LowerBound is the laminar-tree bound of a certificate-first auto
	// solve; ActiveSlots − LowerBound is the optimality gap.
	LowerBound int64 `json:"lower_bound,omitempty"`

	// ElapsedMS is the whole request (async: submit → terminal);
	// SolveMS is the solver execution that produced the result — for
	// cache hits, the original solve that populated the entry.
	ElapsedMS float64 `json:"elapsed_ms"`
	SolveMS   float64 `json:"solve_ms,omitempty"`

	// Predicted vs measured cost: PredictedCostNS is the profile's
	// prediction (costmodel.Profile.PredictNS), MeasuredNS the wall time of the solve behind the
	// result, CostAbsPctErr the |measured−predicted|/predicted error
	// in percent (set by Emit when both sides are present).
	PredictedCostNS int64   `json:"predicted_cost_ns,omitempty"`
	MeasuredNS      int64   `json:"measured_ns,omitempty"`
	CostAbsPctErr   float64 `json:"cost_abs_pct_err,omitempty"`

	Stages   []StageMS `json:"stages,omitempty"`
	Counters *Counters `json:"counters,omitempty"`

	// TraceSampled marks that the full span trace was retained and is
	// retrievable at /debug/traces/{request_id}.
	TraceSampled bool `json:"trace_sampled,omitempty"`
}

// StageMS is one pipeline stage's share of the solve.
type StageMS struct {
	Stage string  `json:"stage"`
	MS    float64 `json:"ms"`
	Calls int64   `json:"calls"`
}

// Counters is the solver-work digest of an event: the deterministic
// operation counters that dominate solve cost.
type Counters struct {
	SimplexPivots  int64 `json:"simplex_pivots,omitempty"`
	RatPivots      int64 `json:"ratsimplex_pivots,omitempty"`
	DinicRuns      int64 `json:"dinic_runs,omitempty"`
	DinicAugPaths  int64 `json:"dinic_augmenting_paths,omitempty"`
	BBNodes        int64 `json:"bb_nodes_expanded,omitempty"`
	TransformMoves int64 `json:"transform_moves,omitempty"`
	ForestsSolved  int64 `json:"forests_solved,omitempty"`

	CombActivations   int64 `json:"comb_activations,omitempty"`
	CombReused        int64 `json:"comb_reused,omitempty"`
	CombDeactivations int64 `json:"comb_deactivations,omitempty"`
	CombFallbacks     int64 `json:"comb_fallbacks,omitempty"`
}

// FillStats folds a solve's instrumentation snapshot into the event:
// per-stage timings and the operation-counter digest. A nil stats is a
// no-op (error paths produce none).
func (e *Event) FillStats(st *metrics.Stats) {
	if st == nil {
		return
	}
	if len(st.Stages) > 0 {
		e.Stages = make([]StageMS, 0, len(st.Stages))
		for _, sg := range st.Stages {
			e.Stages = append(e.Stages, StageMS{
				Stage: sg.Stage,
				MS:    float64(sg.Nanos) / 1e6,
				Calls: sg.Calls,
			})
		}
	}
	c := st.Counters
	if c != (metrics.CounterStats{}) {
		e.Counters = &Counters{
			SimplexPivots:  c.SimplexPivots,
			RatPivots:      c.RatPivots,
			DinicRuns:      c.DinicRuns,
			DinicAugPaths:  c.DinicAugPaths,
			BBNodes:        c.BBNodesExpanded,
			TransformMoves: c.TransformMoves,
			ForestsSolved:  c.ForestsSolved,

			CombActivations:   c.CombActivations,
			CombReused:        c.CombReused,
			CombDeactivations: c.CombDeactivations,
			CombFallbacks:     c.CombFallbacks,
		}
	}
}

// StatusForHTTP maps a response's HTTP status (plus the error text and
// cached flag) onto the event status taxonomy — the same mapping the
// loadgen client applies on its side, which is what makes the two
// views of one run line up.
func StatusForHTTP(code int, errMsg string, cached bool) string {
	switch {
	case code == 200:
		if cached {
			return StatusCached
		}
		return StatusOK
	case code == 429:
		return StatusShed
	case code == 503:
		if strings.Contains(errMsg, "deadline") {
			return StatusTimeout
		}
		return StatusCanceled
	case code >= 500:
		return StatusServerErr
	default:
		return StatusClientErr
	}
}

// IsSuccess reports whether a status counts as a served solve.
func IsSuccess(status string) bool {
	return status == StatusOK || status == StatusCached
}
