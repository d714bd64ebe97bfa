package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/instance"
	"repro/internal/sched"
)

// FuzzSolveHTTP posts arbitrary bodies under the size limit to a
// default-config handler. No body may panic it, every status must be
// 200, 4xx or 503, every 200 body must decode, and a returned schedule
// must be valid for the request's instance with as many active slots as
// the response reports. Each request runs under a client deadline, so a
// slow solve ends in 503 rather than stalling the run. Run via
// `make fuzz-smoke` (and CI).
func FuzzSolveHTTP(f *testing.F) {
	nested := `{"g":2,"jobs":[{"p":2,"r":0,"d":6},{"p":1,"r":1,"d":3},{"p":3,"r":0,"d":6}]}`
	general := `{"g":1,"jobs":[{"p":1,"r":0,"d":3},{"p":2,"r":2,"d":6}]}`
	for _, body := range []string{
		`{"instance":` + nested + `,"include_schedule":true}`,
		`{"instance":` + nested + `,"include_schedule":true,"algorithm":"comb"}`,
		`{"instance":` + nested + `,"include_schedule":true,"algorithm":"nested95","minimalize":true}`,
		`{"instance":` + nested + `,"include_schedule":true,"include_trace":true}`,
		`{"instance":` + general + `,"include_schedule":true}`,
		`{"instance":` + general + `,"include_schedule":true,"algorithm":"greedy-rtl"}`,
		`{"instance":` + general + `,"include_schedule":true,"algorithm":"exact"}`,
		`{"instance":` + general + `,"include_schedule":true,"algorithm":"all-open","timeout_ms":50}`,
		`{"instance":{"g":1,"jobs":[{"p":1,"r":0,"d":100000000}]},"algorithm":"greedy-minimal","include_schedule":true}`,
		`{"instance":{"g":2,"jobs":[]},"include_schedule":true}`,
		`{"instance":{"g":1,"jobs":[{"p":3,"r":0,"d":3},{"p":3,"r":0,"d":3}]}}`,
		`{"instance":{"g":0,"jobs":[{"p":1,"r":0,"d":1}]}}`,
		`{"instance":` + nested + `,"bogus":1}`,
		`{"instance":` + nested + `}{}`,
		`{"instance":` + nested + `,"algorithm":"simplex"}`,
		`[]`,
		``,
	} {
		f.Add([]byte(body))
	}
	s := New(slog.New(slog.NewTextHandler(io.Discard, nil)), DefaultConfig(1))
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxRequestBody {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		code, data := rec.Code, rec.Body.Bytes()
		switch {
		case code == http.StatusOK:
		case code >= 400 && code < 500, code == http.StatusServiceUnavailable:
			return
		default:
			t.Fatalf("status %d for %q: %s", code, body, data)
		}
		var out SolveResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("200 body does not decode (%v): %s", err, data)
		}
		if out.Schedule == nil {
			return
		}
		var sr SolveRequest
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatalf("accepted body does not decode: %v", err)
		}
		in, err := instance.ReadJSON(bytes.NewReader(sr.Instance))
		if err != nil {
			t.Fatalf("accepted instance does not decode: %v", err)
		}
		sc, err := sched.ReadJSON(bytes.NewReader(out.Schedule))
		if err != nil {
			t.Fatalf("schedule does not decode: %v: %s", err, out.Schedule)
		}
		if err := sc.Validate(in); err != nil {
			t.Fatalf("schedule invalid for %q: %v", body, err)
		}
		if sc.NumActive() != out.ActiveSlots {
			t.Fatalf("schedule has %d active slots, response says %d", sc.NumActive(), out.ActiveSlots)
		}
	})
}
