package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"repro/internal/trace"
)

// Config configures the wide-event pipeline.
type Config struct {
	// RingSize bounds the in-memory event ring; <= 0 disables the
	// pipeline entirely (New returns nil).
	RingSize int
	// Sink, when non-nil, receives every event as one JSON line.
	// Writes are serialized by the pipeline.
	Sink io.Writer
	// SlowThreshold is the tail-sampling latency threshold: successful
	// requests at or above it retain their span trace. 0 means only
	// errored/shed requests are retained.
	SlowThreshold time.Duration
	// TraceRetain bounds how many tail-sampled traces are kept
	// (default 64).
	TraceRetain int
	// SLO names the objectives the burn-rate tracker measures against.
	SLO SLOConfig
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
}

// Pipeline is the wide-event fan-in: Emit accepts canonical events and
// feeds the ring, the JSONL sink and the SLO tracker; the trace store
// holds tail-sampled exemplars.
// A nil *Pipeline is the disabled pipeline — every method no-ops.
type Pipeline struct {
	cfg    Config
	ring   *ring
	slo    *sloTracker
	traces *trace.Store

	sinkMu sync.Mutex
	sink   io.Writer
}

// New builds a pipeline from cfg, or returns nil (disabled) when
// cfg.RingSize <= 0.
func New(cfg Config) *Pipeline {
	if cfg.RingSize <= 0 {
		return nil
	}
	if cfg.TraceRetain <= 0 {
		cfg.TraceRetain = 64
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Pipeline{
		cfg:    cfg,
		ring:   newRing(cfg.RingSize),
		slo:    newSLOTracker(cfg.SLO),
		traces: trace.NewStore(cfg.TraceRetain),
		sink:   cfg.Sink,
	}
}

// Enabled reports whether the pipeline is live.
func (p *Pipeline) Enabled() bool { return p != nil }

// Emit finalizes and publishes one wide event: derives the prediction
// error when both sides are present, folds the outcome into the SLO
// tracker, appends to the ring, and writes the JSONL sink line. The
// event must not be mutated after Emit.
func (p *Pipeline) Emit(ev *Event) {
	if p == nil || ev == nil {
		return
	}
	if ev.Schema == "" {
		ev.Schema = EventSchema
	}
	if ev.PredictedCostNS > 0 && ev.MeasuredNS > 0 {
		ev.CostAbsPctErr = 100 * math.Abs(float64(ev.MeasuredNS)-float64(ev.PredictedCostNS)) / float64(ev.PredictedCostNS)
	}
	p.slo.observe(p.cfg.Now(), IsSuccess(ev.Status), ev.ElapsedMS)
	p.ring.append(ev)
	if p.sink != nil {
		if line, err := json.Marshal(ev); err == nil {
			// One Write per event (newline included) so pipelines sharing a
			// sink — e.g. an atload fleet of in-process replicas writing one
			// JSONL file — never interleave partial lines.
			line = append(line, '\n')
			p.sinkMu.Lock()
			p.sink.Write(line)
			p.sinkMu.Unlock()
		}
	}
}

// ShouldRetain applies the tail-sampling rule: keep the full span
// trace only when the outcome is interesting — not a success, or
// slower than the configured threshold.
func (p *Pipeline) ShouldRetain(status string, elapsed time.Duration) bool {
	if p == nil {
		return false
	}
	if !IsSuccess(status) {
		return true
	}
	return p.cfg.SlowThreshold > 0 && elapsed >= p.cfg.SlowThreshold
}

// RetainTrace stores a tail-sampled span trace under the request ID.
func (p *Pipeline) RetainTrace(requestID string, spans []trace.SpanData) {
	if p == nil {
		return
	}
	p.traces.Put(requestID, spans)
}

// Trace returns a retained trace as Chrome trace-event JSON structures.
func (p *Pipeline) Trace(requestID string) (*trace.ChromeTrace, bool) {
	if p == nil {
		return nil, false
	}
	spans, ok := p.traces.Get(requestID)
	if !ok {
		return nil, false
	}
	evs := trace.ChromeEventsFromSpans(spans)
	if evs == nil {
		evs = []trace.ChromeEvent{}
	}
	return &trace.ChromeTrace{TraceEvents: evs, DisplayUnit: "ms"}, true
}

// TraceIDs returns the request IDs with retained traces, oldest first.
func (p *Pipeline) TraceIDs() []string {
	if p == nil {
		return nil
	}
	return p.traces.IDs()
}

// EventFilter narrows an Events listing.
type EventFilter struct {
	Status string // exact match on Event.Status
	Class  string // exact match on Event.Class
	Path   string // exact match on Event.Path
	Limit  int    // keep only the newest Limit events (<=0: all)
}

// EventsPage is the /debug/events body.
type EventsPage struct {
	Total    int64    `json:"total_emitted"`
	Returned int      `json:"returned"`
	Events   []*Event `json:"events"`
}

// Events returns retained events oldest-first, filtered.
func (p *Pipeline) Events(f EventFilter) EventsPage {
	if p == nil {
		return EventsPage{Events: []*Event{}}
	}
	evs, total := p.ring.snapshot()
	out := make([]*Event, 0, len(evs))
	for _, ev := range evs {
		if f.Status != "" && ev.Status != f.Status {
			continue
		}
		if f.Class != "" && ev.Class != f.Class {
			continue
		}
		if f.Path != "" && ev.Path != f.Path {
			continue
		}
		out = append(out, ev)
	}
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[len(out)-f.Limit:]
	}
	return EventsPage{Total: total, Returned: len(out), Events: out}
}

// SLOSummary digests the rolling SLO windows at the current instant.
func (p *Pipeline) SLOSummary() SLOSummary {
	if p == nil {
		return SLOSummary{}
	}
	return p.slo.summary(p.cfg.Now())
}

// WritePrometheus appends the pipeline's metric families to a
// Prometheus text exposition: the rolling SLO window gauges (the
// build-info gauge is written separately via WriteBuildInfoPrometheus,
// which works even with the pipeline disabled).
func (p *Pipeline) WritePrometheus(w io.Writer) {
	if p == nil {
		return
	}
	s := p.slo.summary(p.cfg.Now())
	fmt.Fprintf(w, "# HELP activetime_slo_latency_objective_ms Configured latency objective in milliseconds (0 = unset).\n")
	fmt.Fprintf(w, "# TYPE activetime_slo_latency_objective_ms gauge\n")
	fmt.Fprintf(w, "activetime_slo_latency_objective_ms %g\n", p.cfg.SLO.LatencyObjectiveMS)
	fmt.Fprintf(w, "# HELP activetime_slo_error_budget Configured error budget fraction (0 = unset).\n")
	fmt.Fprintf(w, "# TYPE activetime_slo_error_budget gauge\n")
	fmt.Fprintf(w, "activetime_slo_error_budget %g\n", p.cfg.SLO.ErrorBudget)

	writeWindowGauge := func(name, help string, val func(WindowStats) float64) {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
		fmt.Fprintf(w, "# TYPE %s gauge\n", name)
		for _, ws := range s.Windows {
			fmt.Fprintf(w, "%s{window=%q} %g\n", name, ws.Window, val(ws))
		}
	}
	writeWindowGauge("activetime_slo_requests", "Requests observed in the rolling window.",
		func(ws WindowStats) float64 { return float64(ws.Requests) })
	writeWindowGauge("activetime_slo_errors", "Errored (non-served) requests in the rolling window.",
		func(ws WindowStats) float64 { return float64(ws.Errors) })
	writeWindowGauge("activetime_slo_success_ratio", "Served/total ratio over the rolling window (1 with no traffic).",
		func(ws WindowStats) float64 { return ws.SuccessRatio })
	writeWindowGauge("activetime_slo_latency_attainment", "Fraction of served requests within the latency objective over the rolling window.",
		func(ws WindowStats) float64 { return ws.LatencyAttainment })
	writeWindowGauge("activetime_slo_error_burn_rate", "Error-budget burn rate over the rolling window (1.0 = consuming budget exactly at the provisioned rate).",
		func(ws WindowStats) float64 { return ws.ErrorBurnRate })
	writeWindowGauge("activetime_slo_latency_burn_rate", "Latency-tail budget burn rate over the rolling window (p99 objective implies a 1% tail budget).",
		func(ws WindowStats) float64 { return ws.LatencyBurnRate })
}
