package server

// Tests for the cluster-facing server satellites: inbound X-Request-ID
// adoption and the draining /healthz state.

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestRequestIDAdoptedAndEchoed(t *testing.T) {
	_, ts, _ := testServer(t)

	// Inbound id is adopted: response header, body and log line all
	// carry it.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/solve",
		strings.NewReader(`{"instance":`+smallInstance+`}`))
	req.Header.Set(RequestIDHeader, "atc-000042")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get(RequestIDHeader); got != "atc-000042" {
		t.Fatalf("response %s = %q, want atc-000042", RequestIDHeader, got)
	}
	var out SolveResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.RequestID != "atc-000042" {
		t.Fatalf("body request_id = %q, want atc-000042", out.RequestID)
	}

	// Absent header: a fresh id is generated and echoed.
	resp2, data2 := postSolve(t, ts, `{"instance":`+smallInstance+`}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, data2)
	}
	if got := resp2.Header.Get(RequestIDHeader); !strings.HasPrefix(got, "req-") {
		t.Fatalf("generated id = %q, want req-* prefix", got)
	}
}

func TestRequestIDRejectsMalformed(t *testing.T) {
	_, ts, _ := testServer(t)
	for _, bad := range []string{
		"has space",
		"tab\tchar",
		"non-ascii-\xc3\xbc",
		strings.Repeat("x", 300),
	} {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/solve",
			strings.NewReader(`{"instance":`+smallInstance+`}`))
		req.Header.Set(RequestIDHeader, bad)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if got := resp.Header.Get(RequestIDHeader); !strings.HasPrefix(got, "req-") {
			t.Fatalf("malformed inbound id %q was adopted as %q", bad, got)
		}
	}
}

func TestHealthzDraining(t *testing.T) {
	s, ts, _ := testServer(t)
	if s.Draining() {
		t.Fatal("fresh server reports draining")
	}
	s.StartDraining()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "draining" {
		t.Fatalf("draining healthz body: %v", body)
	}
	// Solves keep working while draining: only the health signal flips.
	solveResp, data := postSolve(t, ts, `{"instance":`+smallInstance+`}`)
	if solveResp.StatusCode != http.StatusOK {
		t.Fatalf("solve while draining: status %d: %s", solveResp.StatusCode, data)
	}
}
