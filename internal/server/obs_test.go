package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	activetime "repro"
	"repro/internal/costmodel"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/trace"
)

// obsConfig is the baseline telemetry-enabled test config: small ring,
// cache on so hit/miss/coalesced outcomes occur, tail sampling off for
// successes unless a test overrides TailSlow.
func obsConfig() Config {
	return Config{
		DefaultWorkers: 1,
		CacheEntries:   16,
		EventRing:      64,
		SLOTarget:      obs.SLOConfig{LatencyObjectiveMS: 250, ErrorBudget: 0.01},
	}
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s: %v\n%s", path, err, data)
		}
	}
	return resp.StatusCode
}

// TestDebugEventsEndpoint: every request — solved, cached, rejected —
// lands exactly one wide event in /debug/events, and the ring is
// filterable by status with a bounded page size.
func TestDebugEventsEndpoint(t *testing.T) {
	_, ts, _ := testServerCfg(t, obsConfig())

	lpBody := `{"instance":` + smallInstance + `,"algorithm":"nested95"}`
	resp1, data1 := postSolve(t, ts, lpBody)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp1.StatusCode, data1)
	}
	var first SolveResponse
	if err := json.Unmarshal(data1, &first); err != nil {
		t.Fatal(err)
	}
	if resp2, data2 := postSolve(t, ts, lpBody); resp2.StatusCode != http.StatusOK ||
		!bytes.Contains(data2, []byte(`"cached":true`)) {
		t.Fatalf("warm solve: %d %s", resp2.StatusCode, data2)
	}
	// Auto goes certificate-first; comb meets the tree bound here.
	if resp, data := postSolve(t, ts, `{"instance":`+smallInstance+`}`); resp.StatusCode != http.StatusOK ||
		!bytes.Contains(data, []byte(`"algorithm":"comb"`)) {
		t.Fatalf("auto solve: %d %s", resp.StatusCode, data)
	}
	if resp3, _ := postSolve(t, ts, `{`); resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json: %d, want 400", resp3.StatusCode)
	}

	var page obs.EventsPage
	if code := getJSON(t, ts, "/debug/events", &page); code != http.StatusOK {
		t.Fatalf("/debug/events: %d", code)
	}
	if page.Total != 4 || len(page.Events) != 4 {
		t.Fatalf("events page: total %d returned %d, want 4/4", page.Total, len(page.Events))
	}
	// Oldest first: ok, cached, ok, client_error.
	wantStatus := []string{obs.StatusOK, obs.StatusCached, obs.StatusOK, obs.StatusClientErr}
	for i, ev := range page.Events {
		if ev.Status != wantStatus[i] {
			t.Errorf("event %d status %q, want %q", i, ev.Status, wantStatus[i])
		}
		if ev.Schema != obs.EventSchema || ev.RequestID == "" || ev.Path != obs.PathSync {
			t.Errorf("event %d malformed: %+v", i, ev)
		}
	}
	solved := page.Events[0]
	if solved.RequestID != first.RequestID {
		t.Errorf("first event request id %q, want %q", solved.RequestID, first.RequestID)
	}
	if solved.PredictedCostNS <= 0 || solved.MeasuredNS <= 0 || solved.SolveMS <= 0 {
		t.Errorf("solved event lacks cost fields: %+v", solved)
	}
	if solved.Cache != obs.CacheMiss || page.Events[1].Cache != obs.CacheHit {
		t.Errorf("cache outcomes %q,%q want miss,hit", solved.Cache, page.Events[1].Cache)
	}
	if solved.Algorithm == "" || solved.Jobs == 0 || solved.Family == "" || solved.ActiveSlots <= 0 {
		t.Errorf("solved event missing shape: %+v", solved)
	}
	if len(solved.Stages) == 0 || solved.Counters == nil || solved.Counters.SimplexPivots == 0 {
		t.Errorf("solved event missing stage timings/counters: %+v", solved)
	}
	combEv := page.Events[2]
	if combEv.Algorithm != string(activetime.AlgCombinatorial) || combEv.RouteReason != activetime.RouteReasonCertificateFirst ||
		combEv.LowerBound <= 0 || combEv.LowerBound > combEv.ActiveSlots {
		t.Errorf("certificate-first event: %+v", combEv)
	}
	if c := combEv.Counters; c == nil || c.CombActivations == 0 {
		t.Errorf("comb-served event missing comb counters: %+v", combEv.Counters)
	}
	// The cached event must not re-claim solver work but still carries
	// the measured time of the original solve.
	if page.Events[1].MeasuredNS != solved.MeasuredNS {
		t.Errorf("cached event measured %d, want original %d", page.Events[1].MeasuredNS, solved.MeasuredNS)
	}

	var filtered obs.EventsPage
	getJSON(t, ts, "/debug/events?status=cached", &filtered)
	if filtered.Returned != 1 || filtered.Events[0].Status != obs.StatusCached {
		t.Errorf("status filter: %+v", filtered)
	}
	var limited obs.EventsPage
	getJSON(t, ts, "/debug/events?limit=1", &limited)
	if limited.Total != 4 || len(limited.Events) != 1 || limited.Events[0].Status != obs.StatusClientErr {
		t.Errorf("limit keeps newest: %+v", limited)
	}
	if code := getJSON(t, ts, "/debug/events?limit=bogus", nil); code != http.StatusBadRequest {
		t.Errorf("bad limit: %d, want 400", code)
	}
}

// TestDebugSLOEndpoint: the burn-rate summary reflects live traffic in
// every rolling window.
func TestDebugSLOEndpoint(t *testing.T) {
	_, ts, _ := testServerCfg(t, obsConfig())
	for i := 0; i < 3; i++ {
		if resp, data := postSolve(t, ts, `{"instance":`+smallInstance+`}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("solve: %d %s", resp.StatusCode, data)
		}
	}
	postSolve(t, ts, `{`) // one client error

	var sum obs.SLOSummary
	if code := getJSON(t, ts, "/debug/slo", &sum); code != http.StatusOK {
		t.Fatalf("/debug/slo: %d", code)
	}
	if sum.Target.LatencyObjectiveMS != 250 || sum.Target.ErrorBudget != 0.01 {
		t.Errorf("target %+v", sum.Target)
	}
	if len(sum.Windows) != 3 {
		t.Fatalf("windows %d, want 3 (1m/10m/1h)", len(sum.Windows))
	}
	for _, w := range sum.Windows {
		if w.Requests != 4 || w.Errors != 1 {
			t.Errorf("window %s: requests %d errors %d, want 4/1", w.Window, w.Requests, w.Errors)
		}
		if w.SuccessRatio <= 0.74 || w.SuccessRatio >= 0.76 {
			t.Errorf("window %s success ratio %g, want 0.75", w.Window, w.SuccessRatio)
		}
		// 25% errors against a 1% budget burns at 25x.
		if w.ErrorBurnRate < 24.9 || w.ErrorBurnRate > 25.1 {
			t.Errorf("window %s error burn %g, want 25", w.Window, w.ErrorBurnRate)
		}
	}
}

// TestTailSampling: traces are retained only for interesting requests —
// errored ones always, successful ones only at or above the slow
// threshold.
func TestTailSampling(t *testing.T) {
	t.Run("fast success not retained, error retained", func(t *testing.T) {
		cfg := obsConfig()
		cfg.TailSlow = time.Hour // nothing is "slow"
		_, ts, _ := testServerCfg(t, cfg)

		_, data := postSolve(t, ts, `{"instance":`+smallInstance+`}`)
		var out SolveResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if code := getJSON(t, ts, "/debug/traces/"+out.RequestID, nil); code != http.StatusNotFound {
			t.Errorf("fast success trace: %d, want 404", code)
		}

		_, edata := postSolve(t, ts, `{"instance":{"g":0,"jobs":[]}}`)
		var e ErrorResponse
		if err := json.Unmarshal(edata, &e); err != nil {
			t.Fatal(err)
		}
		var ct trace.ChromeTrace
		if code := getJSON(t, ts, "/debug/traces/"+e.RequestID, &ct); code != http.StatusOK {
			t.Fatalf("errored trace: %d, want 200", code)
		}
		if len(ct.TraceEvents) == 0 {
			t.Fatal("retained trace has no events")
		}

		var page obs.EventsPage
		getJSON(t, ts, "/debug/events", &page)
		if len(page.Events) != 2 || page.Events[0].TraceSampled || !page.Events[1].TraceSampled {
			t.Errorf("trace_sampled flags wrong: %+v", page.Events)
		}
	})

	t.Run("slow success retained", func(t *testing.T) {
		cfg := obsConfig()
		cfg.TailSlow = time.Nanosecond // everything is "slow"
		_, ts, _ := testServerCfg(t, cfg)

		_, data := postSolve(t, ts, `{"instance":`+smallInstance+`}`)
		var out SolveResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		var ct trace.ChromeTrace
		if code := getJSON(t, ts, "/debug/traces/"+out.RequestID, &ct); code != http.StatusOK {
			t.Fatalf("slow success trace: %d, want 200", code)
		}
		var names []string
		for _, e := range ct.TraceEvents {
			names = append(names, e.Name)
		}
		// A cache-miss solve must carry the request root span and the
		// solver spans underneath it.
		joined := strings.Join(names, ",")
		if !strings.Contains(joined, "request") || !strings.Contains(joined, "solve") {
			t.Errorf("trace spans %v lack request/solve", names)
		}
	})
}

// TestObsDisabled: with EventRing 0 the pipeline is off — debug routes
// absent, yet /metrics still carries the build-info gauge.
func TestObsDisabled(t *testing.T) {
	_, ts, _ := testServerCfg(t, Config{DefaultWorkers: 1})
	for _, path := range []string{"/debug/events", "/debug/slo", "/debug/traces/req-1"} {
		if code := getJSON(t, ts, path, nil); code != http.StatusNotFound {
			t.Errorf("%s with obs disabled: %d, want 404", path, code)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(data), "activetime_build_info{") {
		t.Error("/metrics missing activetime_build_info with obs disabled")
	}
	if strings.Contains(string(data), "activetime_slo_") {
		t.Error("/metrics carries SLO series with obs disabled")
	}
}

// TestMetricsObsSeries: the exposition carries the SLO burn-rate
// gauges and the build-info gauge once telemetry is enabled and traffic
// has flowed.
func TestMetricsObsSeries(t *testing.T) {
	_, ts, _ := testServerCfg(t, obsConfig())
	if resp, data := postSolve(t, ts, `{"instance":`+smallInstance+`}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, data)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(data)
	for _, want := range []string{
		"activetime_build_info{version=",
		"activetime_slo_latency_objective_ms 250",
		"activetime_slo_error_budget 0.01",
		`activetime_slo_requests{window="1m"} 1`,
		`activetime_slo_errors{window="1h"} 0`,
		`activetime_slo_success_ratio{window="10m"} 1`,
		`activetime_slo_latency_attainment{window="1m"} 1`,
		`activetime_slo_error_burn_rate{window="1m"} 0`,
		`activetime_slo_latency_burn_rate{window="1m"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(out, "activetime_costmodel") {
		t.Error("metrics still carry a cost-model series")
	}
}

// TestJobWideEvents: async jobs land wide events too, carrying the job
// id, queue wait, and the same cost fields as the sync path.
func TestJobWideEvents(t *testing.T) {
	cfg := obsConfig()
	s, ts := jobsServer(t, cfg)

	resp, data := postJob(t, ts, fmt.Sprintf(`{"instance":%s,"class":"interactive"}`, smallInstance))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	pollJobTerminal(t, ts, sub.JobID, 10*time.Second)

	// The wide event is emitted before the terminal state is observable,
	// so it is already in the ring here.
	page := s.Obs().Events(obs.EventFilter{Path: obs.PathAsync})
	if page.Total != 1 {
		t.Fatalf("async events: %d, want 1", page.Total)
	}
	ev := page.Events[0]
	if ev.JobID != sub.JobID || ev.Class != "interactive" || ev.Status != obs.StatusOK {
		t.Errorf("async event: %+v", ev)
	}
	if ev.Admission != obs.AdmissionQueued || ev.QueueWaitMS < 0 || ev.ElapsedMS <= 0 {
		t.Errorf("async event admission/timing: %+v", ev)
	}
	if ev.PredictedCostNS <= 0 || ev.MeasuredNS <= 0 {
		t.Errorf("async event missing cost fields: %+v", ev)
	}
}

// TestJobPredictionIsOneNumber: a /jobs submit's predicted_cost_ns is
// the profile's PredictNS, and the queue orders the job by that same
// number and its wide event carries it.
func TestJobPredictionIsOneNumber(t *testing.T) {
	s, ts := jobsServer(t, obsConfig())
	resp, data := postJob(t, ts, `{"instance":`+smallInstance+`}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	pollJobTerminal(t, ts, sub.JobID, 10*time.Second)

	in, err := instance.ReadJSON(strings.NewReader(smallInstance))
	if err != nil {
		t.Fatal(err)
	}
	want := costmodel.NewProfile(in).PredictNS()
	st, _ := s.queue.Get(sub.JobID) // Job.PredictedNS(), what sjf orders by
	page := s.Obs().Events(obs.EventFilter{Path: obs.PathAsync})
	if page.Total != 1 {
		t.Fatalf("async events: %d, want 1", page.Total)
	}
	if sub.PredictedCostNS != want || st.PredictedNS != want || page.Events[0].PredictedCostNS != want {
		t.Fatalf("predicted_cost_ns: response %d, job %d, event %d; want PredictNS %d",
			sub.PredictedCostNS, st.PredictedNS, page.Events[0].PredictedCostNS, want)
	}
}

// failAfterWriter implements http.ResponseWriter + Flusher but fails
// every body write, simulating a client that disconnected mid-replay.
type failAfterWriter struct {
	header http.Header
}

func (f *failAfterWriter) Header() http.Header  { return f.header }
func (f *failAfterWriter) WriteHeader(code int) {}
func (f *failAfterWriter) Write(p []byte) (int, error) {
	return 0, errors.New("broken pipe")
}
func (f *failAfterWriter) Flush() {}

// TestJobEventsSSEDisconnect is the regression test for the events
// stream looping on a dead connection: when writes fail, the handler
// must return promptly even though the job is still running.
func TestJobEventsSSEDisconnect(t *testing.T) {
	release := make(chan struct{})
	s, ts := jobsServer(t, Config{})
	s.testHookBeforeSolve = func(ctx context.Context) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	defer close(release)

	resp, data := postJob(t, ts, fmt.Sprintf(`{"instance":%s}`, smallInstance))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}

	req := httptest.NewRequest(http.MethodGet, "/jobs/"+sub.JobID+"/events", nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(&failAfterWriter{header: make(http.Header)}, req)
	}()
	select {
	case <-done:
		// Returned while the job is still held — the stream noticed the
		// dead client instead of pumping events until job completion.
	case <-time.After(5 * time.Second):
		t.Fatal("events handler still streaming 5s after client write failures")
	}
}

// TestObsConcurrentHammer drives sync solves, async jobs, and debug
// readers concurrently; run under -race (make race) this is the
// telemetry pipeline's server-level data-race test. Afterwards the
// ring and the JSONL sink must agree: one well-formed event per
// request.
func TestObsConcurrentHammer(t *testing.T) {
	var sink bytes.Buffer
	cfg := obsConfig()
	cfg.EventRing = 512
	cfg.EventSink = &syncWriter{w: &sink}
	cfg.TailSlow = time.Millisecond
	s, ts := jobsServer(t, cfg)

	const (
		syncG, syncN   = 4, 10
		asyncG, asyncN = 2, 5
	)
	bodies := []string{
		`{"instance":` + smallInstance + `}`,
		`{"instance":{"g":2,"jobs":[{"p":3,"r":0,"d":8},{"p":2,"r":1,"d":6},{"p":1,"r":2,"d":4}]}}`,
		`{`, // client error in the mix
	}
	var wg sync.WaitGroup
	for g := 0; g < syncG; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < syncN; i++ {
				postSolve(t, ts, bodies[(g+i)%len(bodies)])
			}
		}(g)
	}
	for g := 0; g < asyncG; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < asyncN; i++ {
				resp, data := postJob(t, ts, fmt.Sprintf(`{"instance":%s,"class":"batch"}`, smallInstance))
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("submit: %d %s", resp.StatusCode, data)
					return
				}
				var sub JobSubmitResponse
				if err := json.Unmarshal(data, &sub); err != nil {
					t.Error(err)
					return
				}
				pollJobTerminal(t, ts, sub.JobID, 10*time.Second)
			}
		}()
	}
	// Debug readers race the writers.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				getJSON(t, ts, "/debug/events?limit=5", nil)
				getJSON(t, ts, "/debug/slo", nil)
				resp, err := http.Get(ts.URL + "/metrics")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	want := int64(syncG*syncN + asyncG*asyncN)
	page := s.Obs().Events(obs.EventFilter{})
	if page.Total != want {
		t.Errorf("ring total %d, want %d", page.Total, want)
	}
	lines := 0
	for _, line := range strings.Split(strings.TrimSuffix(sink.String(), "\n"), "\n") {
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("corrupt sink line %q: %v", line, err)
		}
		if ev.RequestID == "" || ev.Status == "" {
			t.Fatalf("sink event missing identity: %s", line)
		}
		lines++
	}
	if int64(lines) != want {
		t.Errorf("sink lines %d, want %d", lines, want)
	}
}
