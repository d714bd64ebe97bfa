package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	activetime "repro"
	"repro/internal/gapfam"
	"repro/internal/gen"
	"repro/internal/instance"
	"repro/internal/obs"
)

// instanceJSON serializes an instance into the wire format /solve
// expects.
func instanceJSON(t *testing.T, in *instance.Instance) string {
	t.Helper()
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(buf.String())
}

// TestAutoRoutesDeepChainToComb is the bug the combinatorial solver
// fixed: a deep nested chain submitted with no algorithm must not be
// fed whole to the LP, whose tableau grows with depth⁴. It goes
// certificate-first, where comb meets the tree bound, so the LP never
// runs and the response certifies comb's schedule optimal.
func TestAutoRoutesDeepChainToComb(t *testing.T) {
	s, ts, _ := testServerCfg(t, Config{DefaultWorkers: 1, EventRing: 16})
	chain := gen.NestedChain(200, 2, 1)
	resp, data := postSolve(t, ts, `{"instance":`+instanceJSON(t, chain)+`}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out SolveResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Algorithm != string(activetime.AlgCombinatorial) {
		t.Fatalf("auto solved depth-200 chain with %q, want comb", out.Algorithm)
	}
	if out.ActiveSlots != 100 || out.LowerBound != out.ActiveSlots {
		t.Fatalf("active slots = %d, lower_bound = %d, want both at the volume bound 100",
			out.ActiveSlots, out.LowerBound)
	}
	page := s.Obs().Events(obs.EventFilter{})
	if len(page.Events) == 0 {
		t.Fatal("no wide events recorded")
	}
	ev := page.Events[len(page.Events)-1]
	if ev.Algorithm != string(activetime.AlgCombinatorial) {
		t.Fatalf("event algorithm = %q", ev.Algorithm)
	}
	if ev.RouteReason != activetime.RouteReasonCertificateFirst {
		t.Fatalf("event route_reason = %q, want %q", ev.RouteReason, activetime.RouteReasonCertificateFirst)
	}
}

// TestAutoCertificateFirst pins the other side of the routing: small
// shallow nested instances go certificate-first. The response names
// the solver behind the schedule and carries the tree lower bound, not
// an LP value that would cover only some components.
func TestAutoCertificateFirst(t *testing.T) {
	s, ts, _ := testServerCfg(t, Config{DefaultWorkers: 1, EventRing: 16})
	for _, in := range []string{smallInstance, instanceJSON(t, gapfam.Nested32(3))} {
		resp, data := postSolve(t, ts, `{"instance":`+in+`}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		var out SolveResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if out.Algorithm != string(activetime.AlgCombinatorial) && out.Algorithm != string(activetime.AlgNested95) {
			t.Fatalf("certificate-first solve labelled %q, want comb or nested95", out.Algorithm)
		}
		if out.LowerBound <= 0 || out.LowerBound > out.ActiveSlots {
			t.Fatalf("lower_bound %d with active_slots %d", out.LowerBound, out.ActiveSlots)
		}
		if bytes.Contains(data, []byte(`"lp_bound"`)) || bytes.Contains(data, []byte(`"certified_ratio"`)) {
			t.Fatalf("certificate-first response carries a partial LP certificate: %s", data)
		}
		page := s.Obs().Events(obs.EventFilter{})
		ev := page.Events[len(page.Events)-1]
		if ev.RouteReason != activetime.RouteReasonCertificateFirst {
			t.Fatalf("event route_reason = %q", ev.RouteReason)
		}
		if ev.Algorithm != out.Algorithm || ev.LowerBound != out.LowerBound {
			t.Fatalf("event algorithm %q lower_bound %d, response %q %d",
				ev.Algorithm, ev.LowerBound, out.Algorithm, out.LowerBound)
		}
	}
}

// TestAutoLPOptionsKeepNested95: an auto request that sets an option
// only the LP pipeline honors keeps the whole instance on nested95,
// unless its tableau is over the LP budget.
func TestAutoLPOptionsKeepNested95(t *testing.T) {
	s, ts, _ := testServerCfg(t, Config{DefaultWorkers: 1, EventRing: 16})
	resp, data := postSolve(t, ts, `{"instance":`+smallInstance+`,"minimalize":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out SolveResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Algorithm != string(activetime.AlgNested95) || out.LPBound <= 0 || out.LowerBound != 0 {
		t.Fatalf("auto with minimalize: %s", data)
	}
	page := s.Obs().Events(obs.EventFilter{})
	if ev := page.Events[len(page.Events)-1]; ev.RouteReason != activetime.RouteReasonSmallNestedLP {
		t.Fatalf("event route_reason = %q", ev.RouteReason)
	}
	// A depth-200 chain's tableau is far over the LP budget, so the same
	// options leave it certificate-first.
	resp, data = postSolve(t, ts, `{"instance":`+instanceJSON(t, gen.NestedChain(200, 2, 1))+`,"minimalize":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	page = s.Obs().Events(obs.EventFilter{})
	if ev := page.Events[len(page.Events)-1]; ev.RouteReason != activetime.RouteReasonCertificateFirst ||
		ev.Algorithm != string(activetime.AlgCombinatorial) {
		t.Fatalf("over-budget chain with minimalize: route_reason %q, algorithm %q", ev.RouteReason, ev.Algorithm)
	}
}

// TestAutoGeneralWindowsRouteToGreedy: crossing windows cannot use
// either nested solver; auto must pick the greedy 3-approximation.
func TestAutoGeneralWindowsRouteToGreedy(t *testing.T) {
	_, ts, _ := testServerCfg(t, Config{DefaultWorkers: 1})
	crossing := `{"g":2,"jobs":[{"p":1,"r":0,"d":3},{"p":1,"r":2,"d":5}]}`
	resp, data := postSolve(t, ts, `{"instance":`+crossing+`}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out SolveResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Algorithm != string(activetime.AlgGreedyMinimal) {
		t.Fatalf("auto routed crossing windows to %q, want greedy-minimal", out.Algorithm)
	}
}

// TestForcedLPOverMemCapRejected: explicitly forcing nested95 onto an
// instance whose estimated tableau exceeds -max-solve-mem must be a
// clean 422, not an OOM.
func TestForcedLPOverMemCapRejected(t *testing.T) {
	_, ts, _ := testServerCfg(t, Config{DefaultWorkers: 1, MaxSolveMemBytes: 1 << 30})
	chain := gen.NestedChain(900, 2, 1)
	resp, data := postSolve(t, ts,
		`{"instance":`+instanceJSON(t, chain)+`,"algorithm":"nested95"}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, data)
	}
	var er ErrorResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, "tableau") || !strings.Contains(er.Error, "auto") {
		t.Fatalf("error should explain the cap and the way out: %q", er.Error)
	}
	// The same instance sails through on the default (auto) route even
	// under the cap.
	resp2, data2 := postSolve(t, ts, `{"instance":`+instanceJSON(t, chain)+`}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("auto route under mem cap: status %d: %s", resp2.StatusCode, data2)
	}
}

// TestForcedLPUnderCapStillRuns: the backstop must not reject small
// LP solves.
func TestForcedLPUnderCapStillRuns(t *testing.T) {
	_, ts, _ := testServerCfg(t, Config{DefaultWorkers: 1, MaxSolveMemBytes: 1 << 30})
	resp, data := postSolve(t, ts, `{"instance":`+smallInstance+`,"algorithm":"nested95"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
}

// TestJobSubmitForcedLPOverMemCapRejected mirrors the backstop on the
// async path: the rejection happens at submit time, before the job
// ever queues.
func TestJobSubmitForcedLPOverMemCapRejected(t *testing.T) {
	_, ts, _ := testServerCfg(t, Config{
		DefaultWorkers: 1, MaxSolveMemBytes: 1 << 30,
		JobsMaxRunning: 1, JobsMaxQueued: 4,
	})
	chain := gen.NestedChain(900, 2, 1)
	body := `{"instance":` + instanceJSON(t, chain) + `,"algorithm":"nested95"}`
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", resp.StatusCode)
	}
}

// TestMemGateAdmitsFeasibleShapes: the -max-solve-mem gate refuses the
// crash bodies (TestSolveErrors) but not their 10⁶ versions, and not
// the 10⁸-slot window on the solvers that never walk it slot by slot.
func TestMemGateAdmitsFeasibleShapes(t *testing.T) {
	_, ts, _ := testServerCfg(t, Config{DefaultWorkers: 1, MaxSolveMemBytes: DefaultConfig(1).MaxSolveMemBytes})
	for _, body := range []string{
		`{"instance":{"g":1,"jobs":[{"p":1,"r":0,"d":1000000}]}}`,
		`{"instance":{"g":1,"jobs":[{"p":1000000,"r":0,"d":1000000}]}}`,
		`{"instance":` + wideWindowInstance + `,"algorithm":"greedy-minimal"}`,
		`{"instance":` + wideWindowInstance + `,"algorithm":"greedy-rtl"}`,
		`{"instance":` + wideWindowInstance + `,"algorithm":"nested95"}`,
		`{"instance":` + wideWindowInstance + `,"algorithm":"exact"}`,
	} {
		if resp, data := postSolve(t, ts, body); resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d: %s", body, resp.StatusCode, data)
		}
	}
}
