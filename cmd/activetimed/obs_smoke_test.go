package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestObsSmoke is the telemetry smoke: build the real binary, boot it
// with the wide-event pipeline on, drive sync and async traffic plus
// one error, then require over real HTTP that /debug/events carries
// one event per request, /debug/slo reflects the traffic, the errored
// request's trace was tail-sampled, /metrics exposes the new series,
// and the JSONL sink on disk parses. `make obs-smoke` runs exactly
// this test.
func TestObsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "activetimed")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	portFile := filepath.Join(dir, "port")
	eventsFile := filepath.Join(dir, "events.jsonl")
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-port-file", portFile,
		"-events-ring", "128", "-events-file", eventsFile,
		"-tail-slow", "10m", // only errors/sheds retain traces
		"-slo-p99", "250", "-slo-max-error-rate", "0.01")
	var logs strings.Builder
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	var addr string
	for i := 0; i < 100; i++ {
		if b, err := os.ReadFile(portFile); err == nil && len(b) > 0 {
			addr = string(b)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("server never wrote port file; logs:\n%s", logs.String())
	}

	post := func(path, body string) (int, []byte) {
		resp, err := http.Post("http://"+addr+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v\nlogs:\n%s", path, err, logs.String())
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, data
	}
	get := func(path string) (int, []byte) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v\nlogs:\n%s", path, err, logs.String())
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, data
	}

	// Traffic: two sync solves (second cached), one async job driven to
	// done, one invalid instance (422, trace-retained).
	instance := `{"g":2,"jobs":[{"p":2,"r":0,"d":6},{"p":1,"r":0,"d":3}]}`
	if code, data := post("/solve", `{"instance":`+instance+`}`); code != http.StatusOK {
		t.Fatalf("solve: %d %s", code, data)
	}
	if code, data := post("/solve", `{"instance":`+instance+`}`); code != http.StatusOK ||
		!strings.Contains(string(data), `"cached":true`) {
		t.Fatalf("warm solve: %d %s", code, data)
	}
	code, data := post("/jobs", `{"instance":`+instance+`,"class":"interactive"}`)
	if code != http.StatusAccepted {
		t.Fatalf("job submit: %d %s", code, data)
	}
	var sub struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(data, &sub); err != nil || sub.JobID == "" {
		t.Fatalf("submit body: %v %s", err, data)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, data := get("/jobs/" + sub.JobID)
		if code != http.StatusOK {
			t.Fatalf("poll: %d %s", code, data)
		}
		var st struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == "done" {
			break
		}
		if st.State == "failed" || st.State == "canceled" || st.State == "shed" ||
			time.Now().After(deadline) {
			t.Fatalf("job state %q: %s", st.State, data)
		}
		time.Sleep(10 * time.Millisecond)
	}
	ecode, edata := post("/solve", `{"instance":{"g":1,"jobs":[{"p":3,"r":0,"d":3},{"p":3,"r":0,"d":3}]}}`)
	if ecode != http.StatusUnprocessableEntity {
		t.Fatalf("infeasible solve: %d %s", ecode, edata)
	}
	var errResp struct {
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(edata, &errResp); err != nil || errResp.RequestID == "" {
		t.Fatalf("error body without request id: %s", edata)
	}

	// The sync event is emitted after the response is written, so poll
	// /debug/events until all 4 requests have landed.
	var page struct {
		Total  int64 `json:"total_emitted"`
		Events []map[string]any
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		code, data := get("/debug/events")
		if code != http.StatusOK {
			t.Fatalf("/debug/events: %d %s", code, data)
		}
		if err := json.Unmarshal(data, &page); err != nil {
			t.Fatalf("events page: %v\n%s", err, data)
		}
		if page.Total >= 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d events after traffic: %s", page.Total, data)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if page.Total != 4 {
		t.Fatalf("events total %d, want 4", page.Total)
	}
	statuses := map[string]int{}
	for _, ev := range page.Events {
		statuses[fmt.Sprint(ev["status"])]++
	}
	if statuses["ok"] != 2 || statuses["cached"] != 1 || statuses["client_error"] != 1 {
		t.Fatalf("event statuses %v, want ok:2 cached:1 client_error:1", statuses)
	}

	// Tail sampling kept the errored request's trace and nothing else.
	if code, data := get("/debug/traces/" + errResp.RequestID); code != http.StatusOK ||
		!strings.Contains(string(data), "traceEvents") {
		t.Errorf("errored trace: %d %s", code, data)
	}

	_, sdata := get("/debug/slo")
	var slo struct {
		Windows []struct {
			Window   string `json:"window"`
			Requests int64  `json:"requests"`
			Errors   int64  `json:"errors"`
		} `json:"windows"`
	}
	if err := json.Unmarshal(sdata, &slo); err != nil || len(slo.Windows) != 3 {
		t.Fatalf("/debug/slo: %v %s", err, sdata)
	}
	if slo.Windows[0].Requests != 4 || slo.Windows[0].Errors != 1 {
		t.Errorf("slo window %+v, want 4 requests / 1 error", slo.Windows[0])
	}

	_, mdata := get("/metrics")
	for _, want := range []string{
		"activetime_build_info{version=",
		`activetime_slo_requests{window="1m"} 4`,
		"activetime_slo_latency_objective_ms 250",
	} {
		if !strings.Contains(string(mdata), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Clean shutdown, then the JSONL sink must hold the same 4 events.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("exit after SIGTERM: %v\nlogs:\n%s", err, logs.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("no exit within 10s of SIGTERM; logs:\n%s", logs.String())
	}
	raw, err := os.ReadFile(eventsFile)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 4 {
		t.Fatalf("sink lines %d, want 4:\n%s", len(lines), raw)
	}
	for _, line := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("corrupt sink line %q: %v", line, err)
		}
		if ev["schema"] != "activetime-event/v1" || ev["request_id"] == "" {
			t.Fatalf("sink event malformed: %s", line)
		}
	}
}
