package server

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	activetime "repro"
	"repro/internal/gen"
	"repro/internal/instance"
	"repro/internal/sched"
	"repro/internal/trace"
)

// encoderBody is the body writeJSON writes for v: json.Encoder's
// output, newline included.
func encoderBody(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAppendSolveResponseMatchesEncoder pins the spliced /solve body
// byte for byte against json.Encoder on the same SolveResponse: with
// and without a schedule, with a trace whose strings need HTML
// escaping, and with an empty schedule ("slots":null).
func TestAppendSolveResponseMatchesEncoder(t *testing.T) {
	in := gen.NestedChain(12, 2, 1)
	res, err := activetime.Solve(in, activetime.AlgCombinatorial)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	sp := tr.StartSpan("solve", trace.String("note", `<a href="x">&</a>`), trace.Int("jobs", 12))
	sp.StartChild("validate").End()
	sp.End()
	base := SolveResponse{
		RequestID: "req-<1>&", Algorithm: string(res.Algorithm), Jobs: in.N(),
		ActiveSlots: res.ActiveSlots, LowerBound: 3, ElapsedMS: 1.25, Stats: res.Stats,
	}
	withSched := base
	withSched.Schedule = res.Schedule.AppendJSON(nil)
	withTrace := withSched
	withTrace.Trace = &trace.ChromeTrace{TraceEvents: tr.ChromeEvents(), DisplayUnit: "ms"}
	traceOnly := base
	traceOnly.Trace = withTrace.Trace
	empty := SolveResponse{RequestID: "req-2", Algorithm: "comb", Schedule: sched.New(2).AppendJSON(nil)}
	for name, out := range map[string]SolveResponse{
		"envelope": base, "schedule": withSched, "schedule+trace": withTrace,
		"trace": traceOnly, "empty schedule": empty, "zero": {},
	} {
		got, err := appendSolveResponse([]byte("x"), &out)
		if err != nil {
			t.Fatal(err)
		}
		if want := append([]byte("x"), encoderBody(t, &out)...); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}
}

// wireSolveResponse is SolveResponse with the trace kept as raw bytes,
// so a decoded body re-encodes to exactly the bytes it came from.
type wireSolveResponse struct {
	RequestID      string          `json:"request_id"`
	Algorithm      string          `json:"algorithm"`
	Jobs           int             `json:"jobs"`
	ActiveSlots    int64           `json:"active_slots"`
	LowerBound     int64           `json:"lower_bound,omitempty"`
	LPBound        float64         `json:"lp_bound,omitempty"`
	CertifiedRatio float64         `json:"certified_ratio,omitempty"`
	ElapsedMS      float64         `json:"elapsed_ms"`
	Cached         bool            `json:"cached,omitempty"`
	WarmStart      bool            `json:"warm_start,omitempty"`
	WarmKind       string          `json:"warm_kind,omitempty"`
	Stats          json.RawMessage `json:"stats,omitempty"`
	Schedule       json.RawMessage `json:"schedule,omitempty"`
	Trace          json.RawMessage `json:"trace,omitempty"`
}

// TestSolveBodyIsEncoderOutput: over real HTTP, every /solve body
// variant (with and without include_schedule, with include_trace, a
// cached relabeled schedule, an empty schedule) is exactly what
// json.Encoder writes for the decoded response.
func TestSolveBodyIsEncoderOutput(t *testing.T) {
	_, ts, _ := testServerCfg(t, Config{DefaultWorkers: 1, CacheEntries: 16})
	inst := `{"g":2,"jobs":[{"p":2,"r":0,"d":6},{"p":1,"r":1,"d":3},{"p":3,"r":0,"d":6}]}`
	permuted := `{"g":2,"jobs":[{"p":3,"r":0,"d":6},{"p":2,"r":0,"d":6},{"p":1,"r":1,"d":3}]}`
	for _, body := range []string{
		`{"instance":` + inst + `}`,
		`{"instance":` + inst + `,"include_schedule":true}`,
		`{"instance":` + permuted + `,"include_schedule":true}`,
		`{"instance":` + inst + `,"include_schedule":true,"include_trace":true,"algorithm":"comb"}`,
		`{"instance":` + inst + `,"include_trace":true}`,
		`{"instance":{"g":2,"jobs":[]},"include_schedule":true}`,
	} {
		resp, data := postSolve(t, ts, body)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %s", body, resp.StatusCode, data)
		}
		var out wireSolveResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if want := encoderBody(t, &out); !bytes.Equal(data, want) {
			t.Errorf("%s:\n got %s\nwant %s", body, data, want)
		}
		if strings.Contains(body, "include_schedule") != (out.Schedule != nil) ||
			strings.Contains(body, "include_trace") != (out.Trace != nil) {
			t.Errorf("%s: schedule %s, trace present %v", body, out.Schedule, out.Trace != nil)
		}
		if strings.Contains(body, `"jobs":[]`) && string(out.Schedule) != `{"g":2,"slots":null}` {
			t.Errorf("empty instance: schedule %s", out.Schedule)
		}
		if out.Schedule != nil {
			// A cached result was solved in canonical job order; it must
			// come back in the request's.
			var req SolveRequest
			if err := json.Unmarshal([]byte(body), &req); err != nil {
				t.Fatal(err)
			}
			in, err := instance.ReadJSON(bytes.NewReader(req.Instance))
			if err != nil {
				t.Fatal(err)
			}
			s, err := sched.ReadJSON(bytes.NewReader(out.Schedule))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Validate(in); err != nil {
				t.Errorf("%s: cached %v: %v", body, out.Cached, err)
			}
		}
	}
}
