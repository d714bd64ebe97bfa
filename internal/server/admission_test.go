package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/instance"
	"repro/internal/sched"
	"repro/internal/solvecache"
)

// validateScheduleAgainst asserts a /solve response schedule is
// feasible for the instance JSON the request carried: right windows,
// right per-job processing amounts, capacity respected.
func validateScheduleAgainst(t *testing.T, instanceJSON string, scheduleJSON json.RawMessage) {
	t.Helper()
	in, err := instance.ReadJSON(strings.NewReader(instanceJSON))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sched.ReadJSON(bytes.NewReader(scheduleJSON))
	if err != nil {
		t.Fatalf("parse schedule: %v\n%s", err, scheduleJSON)
	}
	if err := sc.Validate(in); err != nil {
		t.Fatalf("schedule invalid for the instance sent: %v\n%s", err, scheduleJSON)
	}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestSolveRejectsOversizedBody: a body over maxRequestBody must be
// 413, not a generic 400 (regression: MaxBytesError used to be folded
// into the catch-all decode error).
func TestSolveRejectsOversizedBody(t *testing.T) {
	_, ts, _ := testServer(t)
	// Leading whitespace is valid JSON padding, so the decoder keeps
	// reading until the MaxBytesReader trips.
	body := strings.Repeat(" ", maxRequestBody) + `{"instance":` + smallInstance + `}`
	resp, data := postSolve(t, ts, body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, data)
	}
	var e ErrorResponse
	if err := json.Unmarshal(data, &e); err != nil || e.Error == "" || e.RequestID == "" {
		t.Fatalf("413 body malformed: %s", data)
	}
}

// TestSolveRejectsTrailingGarbage: bytes after the JSON object are an
// error (regression: a second concatenated object used to be silently
// ignored). Trailing whitespace stays legal.
func TestSolveRejectsTrailingGarbage(t *testing.T) {
	_, ts, _ := testServer(t)
	resp, data := postSolve(t, ts, `{"instance":`+smallInstance+`}{"junk":1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trailing object: status %d, want 400: %s", resp.StatusCode, data)
	}
	if !bytes.Contains(data, []byte("trailing")) {
		t.Fatalf("error should mention trailing data: %s", data)
	}
	resp, data = postSolve(t, ts, `{"instance":`+smallInstance+`}`+"  \n\t")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trailing whitespace: status %d, want 200: %s", resp.StatusCode, data)
	}
}

// TestSolveRejectsUnknownFields: typo'd request or instance fields
// are 400 at both decode layers (regression: both decoders used to
// drop unknown keys, so "algorthm" silently ran the default solver).
func TestSolveRejectsUnknownFields(t *testing.T) {
	_, ts, _ := testServer(t)
	for name, body := range map[string]string{
		"request layer":  `{"instance":` + smallInstance + `,"algorthm":"exact"}`,
		"instance layer": `{"instance":{"g":2,"jbs":[{"p":1,"r":0,"d":2}]}}`,
		"job layer":      `{"instance":{"g":2,"jobs":[{"p":1,"r":0,"d":2,"procesing":9}]}}`,
	} {
		resp, data := postSolve(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, resp.StatusCode, data)
		}
	}
}

// TestAdmissionSaturation: with a single in-flight slot held, the
// next request is shed with 429 + Retry-After and counted.
func TestAdmissionSaturation(t *testing.T) {
	s, ts, _ := testServerCfg(t, Config{
		DefaultWorkers: 1,
		MaxInFlight:    1,
		AdmissionWait:  5 * time.Millisecond,
	})
	release := make(chan struct{})
	s.testHookBeforeSolve = func(ctx context.Context) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	defer close(release)

	first := make(chan int, 1)
	go func() {
		resp, _ := postSolve(t, ts, `{"instance":`+smallInstance+`}`)
		first <- resp.StatusCode
	}()
	waitUntil(t, 5*time.Second, func() bool { return s.reg.InFlight() == 1 }, "first solve in flight")

	resp, data := postSolve(t, ts, `{"instance":`+smallInstance+`}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\" (5ms wait rounds up to the 1s floor)", got)
	}
	if got := s.reg.Shed(); got != 1 {
		t.Fatalf("Shed = %d, want 1", got)
	}

	release <- struct{}{}
	if code := <-first; code != http.StatusOK {
		t.Fatalf("held request finished with %d", code)
	}
	if got := s.reg.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after drain", got)
	}
}

// TestRetryAfterReflectsAdmissionWait: the 429 Retry-After header is
// derived from the configured admission wait (rounded up to whole
// seconds), not a hard-coded constant (regression: it used to always
// say "1" regardless of -admission-wait).
func TestRetryAfterReflectsAdmissionWait(t *testing.T) {
	s, ts, _ := testServerCfg(t, Config{
		DefaultWorkers: 1,
		MaxInFlight:    1,
		AdmissionWait:  1200 * time.Millisecond,
	})
	release := make(chan struct{})
	s.testHookBeforeSolve = func(ctx context.Context) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	defer close(release)

	first := make(chan int, 1)
	go func() {
		resp, _ := postSolve(t, ts, `{"instance":`+smallInstance+`}`)
		first <- resp.StatusCode
	}()
	waitUntil(t, 5*time.Second, func() bool { return s.reg.InFlight() == 1 }, "first solve in flight")

	resp, data := postSolve(t, ts, `{"instance":`+smallInstance+`}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want \"2\" (ceil of the 1.2s admission wait)", got)
	}
	release <- struct{}{}
	<-first
}

func TestRetryAfterSeconds(t *testing.T) {
	for _, tc := range []struct {
		wait time.Duration
		want int
	}{
		{0, 1},
		{5 * time.Millisecond, 1},
		{time.Second, 1},
		{1200 * time.Millisecond, 2},
		{2500 * time.Millisecond, 3},
		{10 * time.Second, 10},
	} {
		if got := retryAfterSeconds(tc.wait); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", tc.wait, got, tc.want)
		}
	}
}

// TestAdmissionQueueDepthGauge: a request parked in the admission
// wait shows up in activetime_admission_queue_depth and in the
// handler-level activetime_inflight_requests gauge, and both drain
// back to zero.
func TestAdmissionQueueDepthGauge(t *testing.T) {
	s, ts, _ := testServerCfg(t, Config{
		DefaultWorkers: 1,
		MaxInFlight:    1,
		AdmissionWait:  30 * time.Second, // parked until we cancel it
	})
	release := make(chan struct{})
	s.testHookBeforeSolve = func(ctx context.Context) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	defer close(release)

	first := make(chan int, 1)
	go func() {
		resp, _ := postSolve(t, ts, `{"instance":`+smallInstance+`}`)
		first <- resp.StatusCode
	}()
	waitUntil(t, 5*time.Second, func() bool { return s.reg.InFlight() == 1 }, "first solve in flight")

	// Second request parks in the admission queue; cancel it to leave.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/solve",
		strings.NewReader(`{"instance":`+smallInstance+`}`))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		_ = err
		close(done)
	}()
	waitUntil(t, 5*time.Second, func() bool { return s.reg.AdmissionQueueDepth() == 1 }, "queued request visible")
	if got := s.reg.InFlightRequests(); got != 2 {
		t.Errorf("InFlightRequests = %d, want 2 (one solving, one queued)", got)
	}
	cancel()
	<-done
	waitUntil(t, 5*time.Second, func() bool { return s.reg.AdmissionQueueDepth() == 0 }, "queue drained")

	release <- struct{}{}
	<-first
	waitUntil(t, 5*time.Second, func() bool { return s.reg.InFlightRequests() == 0 }, "request gauge drained")
}

// TestSolveTimeout503: a request-level timeout_ms aborts the solve
// with 503, counts a timeout, and the solve goroutine exits (the
// in-flight gauge returns to zero — no leak).
func TestSolveTimeout503(t *testing.T) {
	s, ts, _ := testServerCfg(t, Config{
		DefaultWorkers: 1,
		CacheEntries:   8, // exercise the detached-flight path
	})
	s.testHookBeforeSolve = func(ctx context.Context) { <-ctx.Done() }

	resp, data := postSolve(t, ts, `{"instance":`+smallInstance+`,"timeout_ms":30}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, data)
	}
	var e ErrorResponse
	if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
		t.Fatalf("503 body malformed: %s", data)
	}
	if got := s.reg.Timeouts(); got < 1 {
		t.Fatalf("Timeouts = %d, want ≥ 1", got)
	}
	if got := s.reg.Canceled(); got != 0 {
		t.Fatalf("Canceled = %d, want 0 (deadline, not disconnect)", got)
	}
	// The flight keeps running until its detached context fires; it
	// must then unwind promptly.
	waitUntil(t, 5*time.Second, func() bool { return s.reg.InFlight() == 0 }, "solve goroutine exit")
}

// TestExactTimeoutFreesSlot: the general-window exact search honors the
// request deadline. Two unit jobs over a 10⁵-slot horizon pass the
// memory gate, but the branch and bound, one max flow over the whole
// horizon per node, would run for hours; with timeout_ms it must
// answer 503 promptly, and the solve itself (which runs in a cache
// flight detached from the request) must stop and release its
// in-flight slot. The horizon is kept short enough that the one max
// flow in progress at the deadline stays well under the wait even
// under the race detector.
func TestExactTimeoutFreesSlot(t *testing.T) {
	s, ts, _ := testServerCfg(t, DefaultConfig(1))
	body := `{"instance":{"g":1,"jobs":[{"p":1,"r":0,"d":60000},{"p":1,"r":2,"d":100000}]},"algorithm":"exact","timeout_ms":200}`
	start := time.Now()
	resp, data := postSolve(t, ts, body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, data)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("503 after %v, want within a few seconds", took)
	}
	waitUntil(t, 5*time.Second, func() bool { return s.reg.InFlight() == 0 }, "exact solve exit")
	if got := s.reg.InFlightRequests(); got != 0 {
		t.Fatalf("InFlightRequests = %d, want 0", got)
	}
}

// TestSolveTimeoutOverflowKeepsServerCap: a timeout_ms so large that
// the ms→Duration conversion would overflow used to turn the computed
// timeout negative and silently disable the server's -solve-timeout
// cap (the request then ran with no deadline at all). It must be
// ignored, leaving the server cap in force.
func TestSolveTimeoutOverflowKeepsServerCap(t *testing.T) {
	s, ts, _ := testServerCfg(t, Config{
		DefaultWorkers: 1,
		SolveTimeout:   30 * time.Millisecond,
	})
	s.testHookBeforeSolve = func(ctx context.Context) { <-ctx.Done() }
	resp, data := postSolve(t, ts, `{"instance":`+smallInstance+`,"timeout_ms":10000000000000}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (server cap must still apply): %s", resp.StatusCode, data)
	}
	if got := s.reg.Timeouts(); got != 1 {
		t.Fatalf("Timeouts = %d, want 1", got)
	}
	waitUntil(t, 5*time.Second, func() bool { return s.reg.InFlight() == 0 }, "solve goroutine exit")
}

// TestServerSolveTimeout: the -solve-timeout server cap applies even
// when the request asks for no deadline.
func TestServerSolveTimeout(t *testing.T) {
	s, ts, _ := testServerCfg(t, Config{
		DefaultWorkers: 1,
		SolveTimeout:   30 * time.Millisecond,
	})
	s.testHookBeforeSolve = func(ctx context.Context) { <-ctx.Done() }
	resp, data := postSolve(t, ts, `{"instance":`+smallInstance+`}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, data)
	}
	waitUntil(t, 5*time.Second, func() bool { return s.reg.InFlight() == 0 }, "solve goroutine exit")
}

// TestClientDisconnectFreesSolve: when the client goes away
// mid-solve, the solve is canceled and its goroutine exits.
func TestClientDisconnectFreesSolve(t *testing.T) {
	s, ts, _ := testServerCfg(t, Config{DefaultWorkers: 1})
	s.testHookBeforeSolve = func(ctx context.Context) { <-ctx.Done() }

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/solve",
		strings.NewReader(`{"instance":`+smallInstance+`}`))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		done <- err
	}()
	waitUntil(t, 5*time.Second, func() bool { return s.reg.InFlight() == 1 }, "solve in flight")
	cancel()
	if err := <-done; err == nil {
		t.Fatal("client request should have been canceled")
	}
	waitUntil(t, 5*time.Second, func() bool { return s.reg.InFlight() == 0 }, "solve goroutine exit")
	// The abandoned flight drops InFlight before the handler counts the
	// cancellation; the handler's deferred RequestFinished runs after
	// that count, so wait for it too before reading the series.
	waitUntil(t, 5*time.Second, func() bool { return s.reg.InFlightRequests() == 0 }, "handler exit")
	// A disconnect is a cancellation, not a timeout: the two series
	// must not be conflated.
	if got := s.reg.Canceled(); got < 1 {
		t.Fatalf("Canceled = %d, want ≥ 1", got)
	}
	if got := s.reg.Timeouts(); got != 0 {
		t.Fatalf("Timeouts = %d, want 0 (disconnect is not a timeout)", got)
	}
}

// TestSolveCacheHit: a repeat of the same instance — even permuted —
// is served from the cache without a second solve, and cache hits can
// still return the schedule.
func TestSolveCacheHit(t *testing.T) {
	s, ts, _ := testServerCfg(t, Config{DefaultWorkers: 2, CacheEntries: 8})

	resp, data := postSolve(t, ts, `{"instance":`+smallInstance+`}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold solve: status %d: %s", resp.StatusCode, data)
	}
	var cold SolveResponse
	if err := json.Unmarshal(data, &cold); err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Fatal("cold solve marked cached")
	}

	// Same jobs, permuted order, schedule requested.
	permuted := `{"g":2,"jobs":[{"p":2,"r":3,"d":6},{"p":2,"r":0,"d":6},{"p":1,"r":0,"d":3}]}`
	resp, data = postSolve(t, ts, `{"instance":`+permuted+`,"include_schedule":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm solve: status %d: %s", resp.StatusCode, data)
	}
	var warm SolveResponse
	if err := json.Unmarshal(data, &warm); err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("permuted repeat not served from cache")
	}
	if warm.ActiveSlots != cold.ActiveSlots {
		t.Fatalf("cached objective %d != original %d", warm.ActiveSlots, cold.ActiveSlots)
	}
	if len(warm.Schedule) == 0 || !bytes.Contains(warm.Schedule, []byte(`"slots"`)) {
		t.Fatalf("cache hit with include_schedule returned no schedule: %s", warm.Schedule)
	}
	// Regression: the cached schedule used to come back in the original
	// request's job order, assigning the permuted request's jobs the
	// wrong processing amounts and windows. It must validate against
	// the instance actually sent.
	validateScheduleAgainst(t, permuted, warm.Schedule)
	if got := s.reg.Solves(); got != 1 {
		t.Fatalf("Solves = %d, want 1 (hit must not re-solve)", got)
	}
	if s.reg.CacheHits() != 1 || s.reg.CacheMisses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", s.reg.CacheHits(), s.reg.CacheMisses())
	}

	// Different options must not share the entry.
	resp, data = postSolve(t, ts, `{"instance":`+smallInstance+`,"minimalize":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("options solve: status %d: %s", resp.StatusCode, data)
	}
	var opt SolveResponse
	if err := json.Unmarshal(data, &opt); err != nil {
		t.Fatal(err)
	}
	if opt.Cached {
		t.Fatal("different options served from cache")
	}
	if got := s.reg.Solves(); got != 2 {
		t.Fatalf("Solves = %d, want 2", got)
	}
}

// TestCacheEvictReinsertRelabels: with a single-entry LRU, an entry
// evicted by unrelated traffic and then re-solved must still relabel
// schedules for permuted requests — eviction must not corrupt the
// canonical-order bookkeeping (satellite of the loadgen PR: loadgen
// warm-cache runs churn the LRU exactly like this).
func TestCacheEvictReinsertRelabels(t *testing.T) {
	s, ts, _ := testServerCfg(t, Config{DefaultWorkers: 1, CacheEntries: 1})

	permA1 := `{"g":2,"jobs":[{"p":2,"r":3,"d":6},{"p":2,"r":0,"d":6},{"p":1,"r":0,"d":3}]}`
	permA2 := `{"g":2,"jobs":[{"p":1,"r":0,"d":3},{"p":2,"r":3,"d":6},{"p":2,"r":0,"d":6}]}`
	other := `{"g":2,"jobs":[{"p":1,"r":0,"d":2}]}`

	// Populate with A, then evict it with an unrelated instance.
	if resp, data := postSolve(t, ts, `{"instance":`+smallInstance+`}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold A: status %d: %s", resp.StatusCode, data)
	}
	if resp, data := postSolve(t, ts, `{"instance":`+other+`}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("evictor: status %d: %s", resp.StatusCode, data)
	}
	if got := s.cache.CacheLen(); got != 1 {
		t.Fatalf("CacheLen = %d, want 1 (capacity-one LRU)", got)
	}

	// A was evicted: a permuted A re-solves and re-populates the entry,
	// and its schedule must fit the permuted ordering.
	resp, data := postSolve(t, ts, `{"instance":`+permA1+`,"include_schedule":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-solve after evict: status %d: %s", resp.StatusCode, data)
	}
	var reinserted SolveResponse
	if err := json.Unmarshal(data, &reinserted); err != nil {
		t.Fatal(err)
	}
	if reinserted.Cached {
		t.Fatal("evicted entry served from cache")
	}
	validateScheduleAgainst(t, permA1, reinserted.Schedule)
	if got := s.reg.Solves(); got != 3 {
		t.Fatalf("Solves = %d, want 3 (evicted key must re-solve)", got)
	}

	// The reinserted entry now serves hits, relabeled per request.
	resp, data = postSolve(t, ts, `{"instance":`+permA2+`,"include_schedule":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hit after reinsert: status %d: %s", resp.StatusCode, data)
	}
	var hit SolveResponse
	if err := json.Unmarshal(data, &hit); err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatal("reinserted entry not served from cache")
	}
	if hit.ActiveSlots != reinserted.ActiveSlots {
		t.Fatalf("hit objective %d != reinserted %d", hit.ActiveSlots, reinserted.ActiveSlots)
	}
	validateScheduleAgainst(t, permA2, hit.Schedule)
	if got := s.reg.Solves(); got != 3 {
		t.Fatalf("Solves = %d, want 3 (hit must not re-solve)", got)
	}
}

// TestSolveCacheCoalesce: two concurrent requests for the same
// canonical instance share one solve; the joiner is counted as
// coalesced, and a joiner with a different job ordering still gets a
// schedule labeled in its own ordering.
func TestSolveCacheCoalesce(t *testing.T) {
	s, ts, _ := testServerCfg(t, Config{DefaultWorkers: 1, CacheEntries: 8})
	release := make(chan struct{})
	s.testHookBeforeSolve = func(ctx context.Context) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}

	in, err := instance.ReadJSON(strings.NewReader(smallInstance))
	if err != nil {
		t.Fatal(err)
	}
	key := solvecache.KeyFor(in, "nested95", false, false, false)

	// The joiner permutes the jobs and asks for the schedule: it must
	// come back relabeled for the joiner's ordering, not the leader's.
	permuted := `{"g":2,"jobs":[{"p":2,"r":3,"d":6},{"p":2,"r":0,"d":6},{"p":1,"r":0,"d":3}]}`
	bodies := []string{
		`{"instance":` + smallInstance + `,"algorithm":"nested95"}`,
		`{"instance":` + permuted + `,"algorithm":"nested95","include_schedule":true}`,
	}
	type reply struct {
		code int
		data []byte
	}
	replies := make([]chan reply, len(bodies))
	for i, body := range bodies {
		replies[i] = make(chan reply, 1)
		go func(i int, body string) {
			resp, data := postSolve(t, ts, body)
			replies[i] <- reply{resp.StatusCode, data}
		}(i, body)
		// Leader first, then the joiner attaches to the same flight.
		want := i + 1
		waitUntil(t, 5*time.Second, func() bool { return s.cache.WaitersFor(key) == want }, "flight waiters")
	}
	close(release)
	var joiner reply
	for i := range replies {
		r := <-replies[i]
		if r.code != http.StatusOK {
			t.Fatalf("request %d finished with %d: %s", i, r.code, r.data)
		}
		if i == 1 {
			joiner = r
		}
	}
	var out SolveResponse
	if err := json.Unmarshal(joiner.data, &out); err != nil {
		t.Fatal(err)
	}
	validateScheduleAgainst(t, permuted, out.Schedule)
	if got := s.reg.Solves(); got != 1 {
		t.Fatalf("Solves = %d, want 1 (coalesced requests share one solve)", got)
	}
	if got := s.reg.CacheCoalescedCount(); got != 1 {
		t.Fatalf("CacheCoalescedCount = %d, want 1", got)
	}
	if s.reg.CacheMisses() != 1 {
		t.Fatalf("CacheMisses = %d, want 1", s.reg.CacheMisses())
	}
}

// TestTraceBypassesCache: include_trace responses are solved fresh
// even when an identical instance is cached.
func TestTraceBypassesCache(t *testing.T) {
	s, ts, _ := testServerCfg(t, Config{DefaultWorkers: 1, CacheEntries: 8})
	if resp, data := postSolve(t, ts, `{"instance":`+smallInstance+`}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	resp, data := postSolve(t, ts, `{"instance":`+smallInstance+`,"include_trace":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out SolveResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Cached {
		t.Fatal("traced request served from cache")
	}
	if out.Trace == nil || len(out.Trace.TraceEvents) == 0 {
		t.Fatal("traced request returned no trace")
	}
	if got := s.reg.Solves(); got != 2 {
		t.Fatalf("Solves = %d, want 2", got)
	}
}
