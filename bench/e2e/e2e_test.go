package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func buildPlan(t *testing.T, w *workload, seed int64, quick bool) *plan {
	t.Helper()
	p, err := w.build(rand.New(rand.NewSource(seedFor(w.name, seed))), quick)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return p
}

func TestPlanDeterminism(t *testing.T) {
	for _, w := range workloads {
		a := buildPlan(t, w, 5, true).fingerprint()
		if b := buildPlan(t, w, 5, true).fingerprint(); a != b {
			t.Errorf("%s: seed 5 gave fingerprints %s and %s", w.name, a, b)
		}
		if c := buildPlan(t, w, 6, true).fingerprint(); a == c {
			t.Errorf("%s: seeds 5 and 6 gave the same fingerprint", w.name)
		}
	}
}

func TestPinnedFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("generates every full-size plan")
	}
	for _, w := range workloads {
		if got := buildPlan(t, w, defaultSeed, false).fingerprint(); got != w.fingerprint {
			t.Errorf("%s: fingerprint %s, pinned %s", w.name, got, w.fingerprint)
		}
	}
}

func TestExactQuantilesCountFailures(t *testing.T) {
	// 98 successes of 1..98 ms and two failures: the median is a
	// measured latency, the p99 lands on a failure.
	lat := make([]float64, 0, 100)
	for i := 1; i <= 98; i++ {
		lat = append(lat, float64(i))
	}
	lat = append(lat, math.Inf(1), math.Inf(1))
	if got := quantile(lat, 0.5); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := quantile(lat, 0.98); got != 98 {
		t.Errorf("p98 = %v, want 98", got)
	}
	if got := finite(quantile(lat, 0.99)); got != math.MaxFloat64 {
		t.Errorf("p99 = %v, want the failure sentinel", got)
	}
}

// TestOpenLoopDueTime stalls one request of a serial fake server: the
// requests due during the stall must carry the wait in their latency,
// because the open loop times each request from when it was due.
func TestOpenLoopDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	var mu sync.Mutex
	var n int
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		n++
		if n == 2 {
			time.Sleep(stall)
		}
		w.Write([]byte(`{"active_slots":1}`))
	})
	var arr []time.Duration
	for i := 0; i < 8; i++ {
		arr = append(arr, time.Duration(i)*10*time.Millisecond)
	}
	cfg := &phaseConfig{h: h, reqs: []request{{body: []byte(`{}`)}}, arrivals: arr}
	ph, err := runPhase(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stalled := ph.samples[1]
	release := stalled.start + stall.Nanoseconds()
	for _, s := range ph.samples[2:] {
		if s.due >= release {
			continue
		}
		lat := time.Duration(s.latency(true))
		want := time.Duration(release - s.due)
		if lat < want {
			t.Errorf("request %d due at %v: latency %v, want at least the %v it queued", s.seq, time.Duration(s.due), lat, want)
		}
		if handler := time.Duration(s.end - s.start); lat <= handler {
			t.Errorf("request %d: latency %v does not exceed its handler time %v", s.seq, lat, handler)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestCompareRules(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + by
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	nineOfTen := shift(steady, -20)
	nineOfTen[3] = 150
	eightOfTen := append([]float64(nil), nineOfTen...)
	eightOfTen[7] = 150
	cases := []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		want        string
	}{
		{"unchanged", steady, shift(steady, 1), true, "same"},
		{"slower by more than the bound", steady, shift(steady, 20), true, "regression"},
		{"slower within the bound", steady, shift(steady, 5), true, "same"},
		{"higher-is-better drop", steady, shift(steady, -20), false, "regression"},
		{"every run better", steady, shift(steady, -20), true, "gain"},
		{"nine pairs in ten better", steady, nineOfTen, true, "gain"},
		{"eight pairs in ten better, the rest far worse", steady, eightOfTen, true, "unresolved"},
		{"spread wider than the bound", noisy, shift(noisy, 15), true, "unresolved"},
	}
	for _, c := range cases {
		if got := judge(c.a, c.b, c.lowerBetter, 0.1).label; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(bench, []byte(`{"end_to_end":[{"name":"p50_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644)
	write := func(name string, p50 float64, failed int) string {
		d := filepath.Join(dir, name)
		os.MkdirAll(d, 0o755)
		var buf bytes.Buffer
		for i := 0; i < 10; i++ {
			r := record{Workload: "cold-mix", Seed: int64(i), result: result{
				Correct: true, Attempted: 100, Failed: failed,
				Metrics: map[string]metric{"p50_ms": {Value: p50 + float64(i%3)*0.1, Unit: "ms"}}}}
			line, _ := json.Marshal(r)
			buf.Write(append(line, '\n'))
		}
		os.WriteFile(filepath.Join(d, "cold-mix.jsonl"), buf.Bytes(), 0o644)
		return d
	}
	base, same, slow, failing := write("a", 10, 0), write("b", 10.1, 0), write("c", 13, 0), write("d", 10, 1)
	for _, c := range []struct {
		b    string
		want int
	}{{same, 0}, {slow, 1}, {failing, 1}} {
		var out, errb bytes.Buffer
		if got := realMain([]string{"-compare", "-bench-json", bench, base, c.b}, &out, &errb); got != c.want {
			t.Errorf("compare %s: exit %d, want %d\n%s%s", filepath.Base(c.b), got, c.want, out.String(), errb.String())
		}
	}
}

// TestQuickSmoke runs every workload end to end and traced at -quick
// size and checks each prints a correct result line with every metric
// BENCHMARK.json declares.
func TestQuickSmoke(t *testing.T) {
	defs := loadBenchDefs(t)
	start := time.Now()
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			var out, errb bytes.Buffer
			args := []string{"-workload", w.name, "-quick", "-seconds", "0.3", "-trace", trace, "-spans", spans}
			if code := realMain(args, &out, &errb); code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s", w.name, trace, code, errb.String())
			}
			var res result
			if err := json.Unmarshal(out.Bytes(), &res); err != nil {
				t.Fatalf("%s trace=%s: %v\n%s", w.name, trace, err, out.String())
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s",
					w.name, trace, res.Correct, res.Attempted, res.Failed, errb.String())
			}
			want := defs.EndToEnd
			if trace == "1" {
				want = defs.PerLayer
				checkSpans(t, w, spans)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json declares %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w.name, trace, d.Name, m, d.Unit)
				}
			}
		}
	}
	if took := time.Since(start); took > 20*time.Second {
		t.Errorf("quick smoke took %v", took)
	}
}

func checkSpans(t *testing.T, w *workload, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	layers := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var sp struct {
			Layer string `json:"layer"`
		}
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatal(err)
		}
		layers[strings.SplitN(sp.Layer, "-", 2)[0]]++
	}
	if layers["client"] == 0 || layers["replica"] != layers["client"] {
		t.Errorf("%s: spans by layer %v", w.name, layers)
	}
	if w.open && layers["router"] != layers["client"] {
		t.Errorf("%s: spans by layer %v, want a router span per request", w.name, layers)
	}
}

type benchDefs struct {
	EndToEnd, PerLayer []struct{ Name, Unit string }
}

func loadBenchDefs(t *testing.T) benchDefs {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	return benchDefs{EndToEnd: raw.EndToEnd, PerLayer: raw.PerLayer}
}

// TestMetricListsMatchBenchmarkJSON keeps the reported metrics and
// BENCHMARK.json in step, in both directions.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	defs := loadBenchDefs(t)
	for _, c := range []struct {
		name string
		json []struct{ Name, Unit string }
		code []metricDef
	}{{"end_to_end", defs.EndToEnd, endToEnd}, {"per_layer", defs.PerLayer, perLayer}} {
		want := map[string]string{}
		for _, d := range c.code {
			want[d.name] = d.unit
		}
		for _, d := range c.json {
			if unit, ok := want[d.Name]; !ok || unit != d.Unit {
				t.Errorf("%s: BENCHMARK.json declares %s (%s), the benchmark reports unit %q", c.name, d.Name, d.Unit, unit)
			}
			delete(want, d.Name)
		}
		for name := range want {
			t.Errorf("%s: the benchmark reports %s, BENCHMARK.json does not declare it", c.name, name)
		}
	}
}
