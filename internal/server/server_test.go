package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	activetime "repro"
	"repro/internal/costmodel"
	"repro/internal/gen"
	"repro/internal/instance"
	"repro/internal/metrics"
)

func testServer(t *testing.T) (*Server, *httptest.Server, *bytes.Buffer) {
	// Cache and admission control off: the base tests (including the
	// registry-consistency hammer, which replays identical bodies and
	// sums per-request stats) need every request to run a real solve.
	return testServerCfg(t, Config{DefaultWorkers: 2})
}

func testServerCfg(t *testing.T, cfg Config) (*Server, *httptest.Server, *bytes.Buffer) {
	t.Helper()
	var logBuf bytes.Buffer
	log := slog.New(slog.NewJSONHandler(&syncWriter{w: &logBuf}, nil))
	s := New(log, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, &logBuf
}

// syncWriter serializes concurrent slog writes into one buffer.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

const smallInstance = `{"g":2,"jobs":[{"p":2,"r":0,"d":6},{"p":1,"r":0,"d":3},{"p":2,"r":3,"d":6}]}`

func postSolve(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(body))
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

func TestHealthz(t *testing.T) {
	_, ts, _ := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Fatalf("healthz body: %v", body)
	}
}

func TestSolveEndpoint(t *testing.T) {
	_, ts, logBuf := testServer(t)
	resp, data := postSolve(t, ts,
		`{"instance":`+smallInstance+`,"algorithm":"nested95","include_schedule":true,"include_trace":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out SolveResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decode: %v\n%s", err, data)
	}
	if out.Algorithm != "nested95" || out.ActiveSlots <= 0 {
		t.Fatalf("unexpected response: %+v", out)
	}
	if out.Stats == nil || out.Stats.Counters.SimplexSolves == 0 {
		t.Fatalf("response missing per-request stats: %+v", out.Stats)
	}
	if out.RequestID == "" {
		t.Fatal("response missing request_id")
	}
	if len(out.Schedule) == 0 || !bytes.Contains(out.Schedule, []byte(`"slots"`)) {
		t.Fatalf("include_schedule returned no schedule: %s", out.Schedule)
	}
	if out.Trace == nil || len(out.Trace.TraceEvents) == 0 {
		t.Fatal("include_trace returned no trace events")
	}
	var sawSolveSpan bool
	for _, e := range out.Trace.TraceEvents {
		if e.Name == "solve" {
			sawSolveSpan = true
		}
	}
	if !sawSolveSpan {
		t.Fatal("trace lacks root solve span")
	}
	// Structured logs carry the request id on solve lines.
	if !strings.Contains(logBuf.String(), `"request_id":"`+out.RequestID+`"`) {
		t.Fatalf("logs missing request_id %s:\n%s", out.RequestID, logBuf.String())
	}
}

// badBodies are requests both solve endpoints must reject, before
// admission or queueing, with the same status on /solve and POST /jobs.
var badBodies = []struct {
	name, body string
	status     int
}{
	{"bad json", `{`, http.StatusBadRequest},
	{"missing instance", `{}`, http.StatusBadRequest},
	{"unknown field", `{"instance":` + smallInstance + `,"nope":1}`, http.StatusBadRequest},
	{"invalid instance", `{"instance":{"g":0,"jobs":[]}}`, http.StatusBadRequest},
	// d−r and r+p overflow int64: invalid input, never handed to a
	// solver (the wrapped window sizes flow networks and slot arrays).
	{"window length overflows", `{"instance":{"g":1,"jobs":[{"p":1,"r":-5000000000000000000,"d":5000000000000000000}]}}`,
		http.StatusBadRequest},
	// Each window fits, but the root-window lengths sum past int64.
	{"horizon overflows", `{"instance":{"g":1,"jobs":[{"p":1,"r":-9000000000000000000,"d":-4000000000000000000},{"p":1,"r":0,"d":5000000000000000000}]},"algorithm":"comb"}`,
		http.StatusBadRequest},
	{"release plus processing overflows", `{"instance":{"g":1,"jobs":[{"p":100,"r":9223372036854775802,"d":9223372036854775807}]}}`,
		http.StatusBadRequest},
	{"unknown algorithm", `{"instance":` + smallInstance + `,"algorithm":"bogus"}`,
		http.StatusUnprocessableEntity},
}

// Two ~50-byte instances that ran an ungated server out of memory: a
// window of 10⁸ slots, which comb (and so auto), all-open and exact
// walk slot by slot, and one job with p = 5·10⁷, whose schedule alone
// outgrows the default -max-solve-mem on every algorithm.
const (
	wideWindowInstance = `{"g":1,"jobs":[{"p":1,"r":0,"d":100000000}]}`
	hugeWorkInstance   = `{"g":1,"jobs":[{"p":50000000,"r":0,"d":50000000}]}`
)

// gateBody is a crash instance posted with an explicit algorithm.
type gateBody struct {
	name, body string
	alg        activetime.Algorithm
}

// memGateBodies are the crash instances on every algorithm that must
// refuse them under the default cap. The greedy orders, nested95 and
// exact handle the 10⁸-slot window in kilobytes (runs and laminar
// nodes, not slots), so only the p = 5·10⁷ body is over the cap for
// them.
func memGateBodies() []gateBody {
	var out []gateBody
	for _, alg := range activetime.Algorithms() {
		post := func(name, inst string) {
			out = append(out, gateBody{name + " on " + string(alg),
				`{"instance":` + inst + `,"algorithm":"` + string(alg) + `"}`, alg})
		}
		post("p=5e7", hugeWorkInstance)
		switch alg {
		case activetime.AlgAuto, activetime.AlgCombinatorial, activetime.AlgAllOpen:
			post("d=1e8", wideWindowInstance)
		}
	}
	return out
}

func TestSolveErrors(t *testing.T) {
	s, ts := jobsServer(t, Config{DefaultWorkers: 2, MaxSolveMemBytes: DefaultConfig(1).MaxSolveMemBytes})

	// Wrong method.
	resp, err := http.Get(ts.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /solve status %d", resp.StatusCode)
	}

	checkBody := func(name string, data []byte) {
		t.Helper()
		var e ErrorResponse
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" || e.RequestID == "" {
			t.Errorf("%s: error body malformed: %s", name, data)
		}
	}
	for _, tc := range badBodies {
		resp, data := postSolve(t, ts, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: /solve status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, data)
		}
		checkBody(tc.name, data)
		resp, data = postJob(t, ts, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: POST /jobs status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, data)
		}
		checkBody(tc.name, data)
	}
	for _, tc := range memGateBodies() {
		// Never post a crash body the gate would let through: check the
		// estimate the server compares first.
		var req SolveRequest
		if err := json.Unmarshal([]byte(tc.body), &req); err != nil {
			t.Fatal(err)
		}
		in, err := instance.ReadJSON(bytes.NewReader(req.Instance))
		if err != nil {
			t.Fatal(err)
		}
		if est := costmodel.NewProfile(in).SolveBytes(string(tc.alg)); est <= DefaultConfig(1).MaxSolveMemBytes {
			t.Fatalf("%s: estimate %d under the default cap; not posting it", tc.name, est)
		}
		for path, post := range map[string]func(*testing.T, *httptest.Server, string) (*http.Response, []byte){
			"/solve": postSolve, "POST /jobs": postJob,
		} {
			resp, data := post(t, ts, tc.body)
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Errorf("%s: %s status %d, want 422 (%s)", tc.name, path, resp.StatusCode, data)
			}
			checkBody(tc.name, data)
			if !strings.Contains(string(data), "estimated") || !strings.Contains(string(data), "cap") {
				t.Errorf("%s: %s error should name the estimate and the cap: %s", tc.name, path, data)
			}
		}
	}
	if got := s.Registry().JobsSubmitted("batch"); got != 0 {
		t.Errorf("rejected bodies queued %d jobs", got)
	}
	if got := s.reg.Solves(); got != 0 {
		t.Errorf("rejected bodies started %d solves", got)
	}

	// /solve only: infeasibility shows up at solve time (a job fails
	// later), and "class" is a POST /jobs field.
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"infeasible", `{"instance":{"g":1,"jobs":[{"p":3,"r":0,"d":3},{"p":3,"r":0,"d":3}]}}`,
			http.StatusUnprocessableEntity},
		{"class on /solve", `{"instance":` + smallInstance + `,"class":"batch"}`, http.StatusBadRequest},
	} {
		resp, data := postSolve(t, ts, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, data)
		}
		checkBody(tc.name, data)
	}

	// The server still answers after every rejection.
	if resp, data := postSolve(t, ts, `{"instance":`+smallInstance+`}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid solve after rejections: %d %s", resp.StatusCode, data)
	}
	if s.reg.InFlight() != 0 {
		t.Errorf("in-flight gauge leaked: %d", s.reg.InFlight())
	}
	if s.reg.InFlightRequests() != 0 {
		t.Errorf("request gauge leaked: %d", s.reg.InFlightRequests())
	}
}

// TestConcurrentSolvesRegistryConsistent hammers /solve from many
// goroutines and asserts the shared cumulative registry equals the
// sum of the per-request Stats snapshots — the counters lose nothing
// under concurrency. Run under -race (make test-race) this doubles as
// the service's data-race test.
func TestConcurrentSolvesRegistryConsistent(t *testing.T) {
	s, ts, _ := testServer(t)

	// A mix of instances, some multi-forest so worker pools engage.
	rng := rand.New(rand.NewSource(5))
	bodies := make([]string, 12)
	for i := range bodies {
		var jobs []instance.Job
		forests := 1 + i%3
		for k := 0; k < forests; k++ {
			part := gen.RandomLaminar(rng, gen.DefaultLaminar(6+i%5, 3)).Shift(int64(k) * 1000)
			jobs = append(jobs, part.Jobs...)
		}
		in, err := instance.New(3, jobs)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := in.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		// Half the bodies name nested95 so both the LP pipeline and the
		// certificate-first auto route feed the registry.
		alg := "auto"
		if i%2 == 1 {
			alg = "nested95"
		}
		bodies[i] = fmt.Sprintf(`{"instance":%s,"algorithm":%q,"workers":%d}`, buf.String(), alg, 1+i%4)
	}

	const goroutines, perG = 8, 6
	statsCh := make(chan metrics.CounterStats, goroutines*perG)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				resp, data := postSolve(t, ts, bodies[(w*perG+i)%len(bodies)])
				if resp.StatusCode != http.StatusOK {
					t.Errorf("solve status %d: %s", resp.StatusCode, data)
					return
				}
				var out SolveResponse
				if err := json.Unmarshal(data, &out); err != nil {
					t.Error(err)
					return
				}
				statsCh <- out.Stats.Counters
			}
		}(w)
	}
	wg.Wait()
	close(statsCh)

	var sum metrics.CounterStats
	n := 0
	for c := range statsCh {
		n++
		// Every field, so a counter added later cannot slip past.
		sv, cv := reflect.ValueOf(&sum).Elem(), reflect.ValueOf(c)
		for f := 0; f < sv.NumField(); f++ {
			sv.Field(f).SetInt(sv.Field(f).Int() + cv.Field(f).Int())
		}
	}
	if n != goroutines*perG {
		t.Fatalf("got %d successful solves, want %d", n, goroutines*perG)
	}
	if got := s.reg.CounterTotals(); got != sum {
		t.Fatalf("registry diverged from per-request sum:\nregistry %+v\nsum      %+v", got, sum)
	}
	if got := s.reg.Solves(); got != int64(n) {
		t.Errorf("Solves = %d, want %d", got, n)
	}
	if got := s.reg.InFlight(); got != 0 {
		t.Errorf("InFlight = %d, want 0", got)
	}
	if got := s.reg.InFlightRequests(); got != 0 {
		t.Errorf("InFlightRequests = %d, want 0", got)
	}
}

// TestMetricsEndpoint checks the exposition includes the per-stage
// cumulative seconds and the solve-latency histogram after traffic.
func TestMetricsEndpoint(t *testing.T) {
	_, ts, _ := testServer(t)
	if resp, data := postSolve(t, ts, `{"instance":`+smallInstance+`,"algorithm":"nested95"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d: %s", resp.StatusCode, data)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	out := string(data)
	for _, want := range []string{
		"activetime_solves_total 1",
		"activetime_inflight_requests 0",
		"activetime_admission_queue_depth 0",
		`activetime_stage_seconds_total{stage="lp_solve"}`,
		`activetime_stage_seconds_total{stage="place"}`,
		"# TYPE activetime_solve_duration_seconds histogram",
		`activetime_solve_duration_seconds_bucket{le="+Inf"} 1`,
		"activetime_solve_duration_seconds_count 1",
		`activetime_ops_total{op="simplex_pivots"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
	// Stage seconds must be nonzero after a real solve.
	var lpSeconds float64
	if _, err := fmt.Sscanf(out[strings.Index(out, `activetime_stage_seconds_total{stage="lp_solve"}`):],
		`activetime_stage_seconds_total{stage="lp_solve"} %g`, &lpSeconds); err != nil {
		t.Fatal(err)
	}
	if lpSeconds <= 0 {
		t.Error("lp_solve cumulative seconds is zero after a solve")
	}
}

// TestPprofWired checks the pprof index answers on the service mux.
func TestPprofWired(t *testing.T) {
	_, ts, _ := testServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(data, []byte("goroutine")) {
		t.Fatalf("pprof index status %d body %q...", resp.StatusCode, data[:min(80, len(data))])
	}
}
