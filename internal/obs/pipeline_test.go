package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

func testPipeline(t *testing.T, cfg Config) *Pipeline {
	t.Helper()
	if cfg.RingSize == 0 {
		cfg.RingSize = 128
	}
	if cfg.Now == nil {
		base := time.Unix(1_700_000_000, 0)
		cfg.Now = func() time.Time { return base }
	}
	p := New(cfg)
	if p == nil {
		t.Fatal("New returned nil for enabled config")
	}
	return p
}

func TestNilPipelineIsDisabled(t *testing.T) {
	var p *Pipeline
	if p.Enabled() {
		t.Error("nil pipeline reports enabled")
	}
	p.Emit(&Event{Status: StatusOK}) // must not panic
	if p.ShouldRetain(StatusServerErr, time.Second) {
		t.Error("nil pipeline retains traces")
	}
	p.RetainTrace("x", nil)
	if _, ok := p.Trace("x"); ok {
		t.Error("nil pipeline serves traces")
	}
	if page := p.Events(EventFilter{}); len(page.Events) != 0 {
		t.Error("nil pipeline serves events")
	}
	var buf bytes.Buffer
	p.WritePrometheus(&buf)
	if buf.Len() != 0 {
		t.Error("nil pipeline writes metrics")
	}
	if New(Config{RingSize: 0}) != nil {
		t.Error("RingSize 0 should disable the pipeline")
	}
}

func TestEmitRingAndFilter(t *testing.T) {
	p := testPipeline(t, Config{RingSize: 4})
	for i := 0; i < 6; i++ {
		st := StatusOK
		if i%2 == 1 {
			st = StatusShed
		}
		p.Emit(&Event{RequestID: fmt.Sprintf("r%d", i), Path: PathSync, Status: st})
	}
	page := p.Events(EventFilter{})
	if page.Total != 6 || page.Returned != 4 {
		t.Fatalf("total=%d returned=%d, want 6/4", page.Total, page.Returned)
	}
	// Oldest-first: ring of 4 after 6 emits holds r2..r5.
	if got := page.Events[0].RequestID; got != "r2" {
		t.Errorf("oldest retained = %s, want r2", got)
	}
	if got := page.Events[3].RequestID; got != "r5" {
		t.Errorf("newest retained = %s, want r5", got)
	}
	shed := p.Events(EventFilter{Status: StatusShed})
	if shed.Returned != 2 {
		t.Errorf("shed filter returned %d, want 2", shed.Returned)
	}
	limited := p.Events(EventFilter{Limit: 1})
	if limited.Returned != 1 || limited.Events[0].RequestID != "r5" {
		t.Errorf("limit filter = %+v, want just r5", limited.Events)
	}
}

func TestEmitDerivesCostError(t *testing.T) {
	p := testPipeline(t, Config{})
	ev := &Event{Status: StatusOK, PredictedCostNS: 100, MeasuredNS: 150, Family: "laminar"}
	p.Emit(ev)
	if ev.CostAbsPctErr != 50 {
		t.Errorf("CostAbsPctErr = %g, want 50", ev.CostAbsPctErr)
	}
	if ev.Schema != EventSchema {
		t.Errorf("Emit should stamp schema, got %q", ev.Schema)
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	p := testPipeline(t, Config{Sink: &buf})
	p.Emit(&Event{RequestID: "a", Path: PathSync, Status: StatusOK})
	p.Emit(&Event{RequestID: "b", Path: PathAsync, Status: StatusShed})
	sc := bufio.NewScanner(&buf)
	var ids []string
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		ids = append(ids, ev.RequestID)
	}
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Errorf("sink lines = %v, want [a b]", ids)
	}
}

func TestTailSamplingRule(t *testing.T) {
	p := testPipeline(t, Config{SlowThreshold: 100 * time.Millisecond})
	cases := []struct {
		status  string
		elapsed time.Duration
		want    bool
	}{
		{StatusOK, 10 * time.Millisecond, false},
		{StatusCached, 10 * time.Millisecond, false},
		{StatusOK, 100 * time.Millisecond, true}, // slow
		{StatusShed, time.Millisecond, true},
		{StatusTimeout, time.Millisecond, true},
		{StatusServerErr, time.Millisecond, true},
		{StatusClientErr, time.Millisecond, true},
	}
	for _, c := range cases {
		if got := p.ShouldRetain(c.status, c.elapsed); got != c.want {
			t.Errorf("ShouldRetain(%q, %v) = %v, want %v", c.status, c.elapsed, got, c.want)
		}
	}
	// No threshold: successes are never retained, regardless of latency.
	p2 := testPipeline(t, Config{})
	if p2.ShouldRetain(StatusOK, time.Hour) {
		t.Error("no-threshold pipeline retained a slow success")
	}
}

func TestTraceRetention(t *testing.T) {
	p := testPipeline(t, Config{TraceRetain: 2})
	span := func(name string) []trace.SpanData {
		return []trace.SpanData{{ID: 1, Name: name, Start: 0, Duration: time.Millisecond}}
	}
	p.RetainTrace("r1", span("a"))
	p.RetainTrace("r2", span("b"))
	p.RetainTrace("r3", span("c"))
	if _, ok := p.Trace("r1"); ok {
		t.Error("r1 should have been evicted (retain 2)")
	}
	ct, ok := p.Trace("r3")
	if !ok {
		t.Fatal("r3 trace missing")
	}
	if len(ct.TraceEvents) != 1 || ct.TraceEvents[0].Name != "c" {
		t.Errorf("r3 trace = %+v", ct.TraceEvents)
	}
	if ids := p.TraceIDs(); len(ids) != 2 || ids[0] != "r2" || ids[1] != "r3" {
		t.Errorf("TraceIDs = %v, want [r2 r3]", ids)
	}
}

func TestSLOWindows(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	p := testPipeline(t, Config{
		SLO: SLOConfig{LatencyObjectiveMS: 100, ErrorBudget: 0.1},
		Now: func() time.Time { return now },
	})
	// 8 fast successes, 1 slow success, 1 error in the current second.
	for i := 0; i < 8; i++ {
		p.Emit(&Event{Status: StatusOK, ElapsedMS: 10})
	}
	p.Emit(&Event{Status: StatusOK, ElapsedMS: 500})
	p.Emit(&Event{Status: StatusServerErr, ElapsedMS: 5})

	s := p.SLOSummary()
	if len(s.Windows) != 3 {
		t.Fatalf("windows = %d, want 3", len(s.Windows))
	}
	w := s.Windows[0] // 1m
	if w.Requests != 10 || w.Errors != 1 {
		t.Fatalf("1m window = %+v", w)
	}
	if w.SuccessRatio != 0.9 {
		t.Errorf("success ratio = %g, want 0.9", w.SuccessRatio)
	}
	// Error rate 0.1 against budget 0.1: burn rate exactly 1.
	if w.ErrorBurnRate != 1 {
		t.Errorf("error burn rate = %g, want 1", w.ErrorBurnRate)
	}
	// 1 of 9 served requests over objective: attainment 8/9, tail
	// fraction (1/9) against the 1% budget → burn ≈ 11.1.
	if got, want := w.LatencyAttainment, 8.0/9.0; got != want {
		t.Errorf("latency attainment = %g, want %g", got, want)
	}
	if got, want := w.LatencyBurnRate, (1.0/9.0)/0.01; got != want {
		t.Errorf("latency burn rate = %g, want %g", got, want)
	}

	// Advance past the 1m window: it empties (vacuous success), the 1h
	// window still sees the traffic.
	now = now.Add(2 * time.Minute)
	s = p.SLOSummary()
	if got := s.Windows[0]; got.Requests != 0 || got.SuccessRatio != 1 || got.LatencyAttainment != 1 {
		t.Errorf("aged-out 1m window = %+v", got)
	}
	if got := s.Windows[2]; got.Requests != 10 {
		t.Errorf("1h window = %+v, want 10 requests", got)
	}

	// An hour later the ring has lapped: everything is gone.
	now = now.Add(time.Hour)
	if got := p.SLOSummary().Windows[2]; got.Requests != 0 {
		t.Errorf("post-lap 1h window = %+v", got)
	}
}

func TestWritePrometheusSeries(t *testing.T) {
	p := testPipeline(t, Config{
		SLO: SLOConfig{LatencyObjectiveMS: 250, ErrorBudget: 0.01},
	})
	p.Emit(&Event{Status: StatusOK, ElapsedMS: 10, PredictedCostNS: 100, MeasuredNS: 90, Family: "unit", Class: "batch"})
	var buf bytes.Buffer
	WriteBuildInfoPrometheus(&buf, BuildInfo{Version: "v1.2.3", GoVersion: "go1.22.0", Commit: "abc123"})
	p.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`activetime_build_info{version="v1.2.3",go_version="go1.22.0",commit="abc123"} 1`,
		`activetime_slo_latency_objective_ms 250`,
		`activetime_slo_error_budget 0.01`,
		`activetime_slo_requests{window="1m"} 1`,
		`activetime_slo_requests{window="10m"} 1`,
		`activetime_slo_requests{window="1h"} 1`,
		`activetime_slo_success_ratio{window="1m"} 1`,
		`activetime_slo_latency_attainment{window="1m"} 1`,
		`activetime_slo_error_burn_rate{window="1m"} 0`,
		`activetime_slo_latency_burn_rate{window="1m"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	if strings.Contains(out, "activetime_costmodel") {
		t.Errorf("exposition still carries a cost-model series\n%s", out)
	}
}

// TestEmitConcurrent hammers Emit + readers from many goroutines; run
// under -race this pins the pipeline's thread safety.
func TestEmitConcurrent(t *testing.T) {
	var sink bytes.Buffer
	p := testPipeline(t, Config{RingSize: 64, Sink: &sink, SLO: SLOConfig{LatencyObjectiveMS: 1, ErrorBudget: 0.5}})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p.Emit(&Event{
					RequestID:       fmt.Sprintf("g%d-%d", g, i),
					Path:            PathSync,
					Status:          StatusOK,
					ElapsedMS:       float64(i),
					PredictedCostNS: 100,
					MeasuredNS:      int64(100 + i),
					Family:          "laminar",
				})
				p.RetainTrace(fmt.Sprintf("g%d-%d", g, i), nil)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			p.Events(EventFilter{Status: StatusOK})
			p.SLOSummary()
			var buf bytes.Buffer
			p.WritePrometheus(&buf)
		}
	}()
	wg.Wait()
	page := p.Events(EventFilter{})
	if page.Total != 1600 {
		t.Errorf("total emitted = %d, want 1600", page.Total)
	}
	// Every sink line must be intact JSON (writes are serialized).
	sc := bufio.NewScanner(&sink)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("corrupt sink line: %v", err)
		}
		lines++
	}
	if lines != 1600 {
		t.Errorf("sink lines = %d, want 1600", lines)
	}
}
