package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"time"

	activetime "repro"
	"repro/internal/costmodel"
	"repro/internal/instance"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/solvecache"
)

// metricDef is one reported metric: its name and unit. The lists below
// must match BENCHMARK.json (a test checks they do).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"slo_frac", "fraction"},
	{"ok_frac", "fraction"},
	{"quality_ratio", "ratio"},
	{"resp_kb_per_req", "KiB"},
	{"cpu_ms_per_req", "ms"},
	{"alloc_kb_per_req", "KiB"},
	{"peak_heap_mb", "MiB"},
}

// coreStages are the solver stages reported as shares of stage time.
// repair (expected never to run) and minimalize (never requested) are
// left out.
var coreStages = []metrics.Stage{
	metrics.StageTreeBuild, metrics.StageCanonicalize, metrics.StageFeasGate,
	metrics.StageLPBuild, metrics.StageLPSolve, metrics.StageTransform,
	metrics.StageRound, metrics.StageFeasCheck, metrics.StagePlace,
	metrics.StageValidate, metrics.StageCombActivate, metrics.StageCombDeactivate,
}

// solveCounts maps per-solve count metrics onto /metrics op labels.
var solveCounts = []struct{ name, op string }{
	{"simplex.pivots", "simplex_pivots"},
	{"maxflow.dinic_runs", "dinic_runs"},
	{"maxflow.aug_paths", "dinic_augmenting_paths"},
	{"nestlp.transform_moves", "transform_moves"},
	{"core.forests", "forests_solved"},
	{"comb.activations", "comb_activations"},
	{"comb.deactivations", "comb_deactivations"},
	{"comb.fallbacks", "comb_fallbacks"},
}

// algNames are the solvers auto routing picks from.
var algNames = []string{
	string(activetime.AlgNested95), string(activetime.AlgCombinatorial), string(activetime.AlgGreedyMinimal),
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"bench.speed_factor", "ratio"},
		{"bench.lag_p99_ms", "ms"},
		{"bench.unattributed_frac", "fraction"},
		{"bench.trace_overhead_frac", "fraction"},
		{"cluster.hop_frac", "fraction"},
		{"cluster.imbalance", "ratio"},
		{"cluster.affinity_key_us", "us"},
		{"server.handler_ms_p50", "ms"},
		{"server.handler_ms_p99", "ms"},
		{"server.self_ms_mean", "ms"},
		{"server.sched_wait_frac", "fraction"},
		{"server.wait_frac", "fraction"},
		{"server.shed_frac", "fraction"},
		{"server.encode_us", "us"},
		{"instance.decode_us", "us"},
		{"activetime.route_us", "us"},
		{"solvecache.digest_us", "us"},
		{"sched.relabel_us", "us"},
		{"solvecache.hit_frac", "fraction"},
		{"solvecache.coalesced_frac", "fraction"},
		{"solvecache.evictions_per_kreq", "count"},
		{"solvecache.warm_start_frac", "fraction"},
		{"solvecache.warm_fallback_frac", "fraction"},
		{"solvecache.warm_mb", "MiB"},
		{"costmodel.abs_pct_err_p50", "%"},
		{"solve.ms_mean", "ms"},
		{"solve.ms_p50", "ms"},
		{"solve.ms_p99", "ms"},
		{"solve.warm_speedup", "ratio"},
	}
	for _, a := range algNames {
		defs = append(defs,
			metricDef{"route." + algKey(a) + "_frac", "fraction"},
			metricDef{"solve." + algKey(a) + "_time_frac", "fraction"})
	}
	defs = append(defs, metricDef{"core.stage_ms_per_solve", "ms"})
	for _, st := range coreStages {
		defs = append(defs, metricDef{"core." + st.String() + "_frac", "fraction"})
	}
	for _, c := range solveCounts {
		defs = append(defs, metricDef{c.name, "count"})
	}
	return defs
}()

// algKey shortens greedy-minimal to greedy in metric names.
func algKey(a string) string {
	if a == string(activetime.AlgGreedyMinimal) {
		return "greedy"
	}
	return a
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("unknown metric " + name)
}

// parseHead decodes the response fields the traced run attributes by.
// It stops before the schedule, the last and largest field.
func (s *sample) parseHead(body []byte) {
	head := body
	if i := bytes.Index(body, []byte(`,"schedule":`)); i > 0 {
		head = append(append([]byte(nil), body[:i]...), '}')
	}
	var h struct {
		Algorithm string  `json:"algorithm"`
		ElapsedMS float64 `json:"elapsed_ms"`
		Cached    bool    `json:"cached"`
		WarmStart bool    `json:"warm_start"`
	}
	if json.Unmarshal(head, &h) != nil {
		return
	}
	for i, a := range algNames {
		if a == h.Algorithm {
			s.alg = int8(i)
		}
	}
	s.elapsedMS, s.cached, s.warm = h.ElapsedMS, h.Cached, h.WarmStart
}

// layerInputs is everything a traced run measured.
type layerInputs struct {
	w                *workload
	traced           []sample
	untraced         [][]sample // the untraced phases before and after
	warm             []sample   // the traced system's set-up requests
	events           []obs.Event
	before, after    map[string]float64 // /metrics around the traced phase
	routed0, routed1 []int64
	probes           map[string]float64
}

func layerMetrics(in layerInputs) map[string]metric {
	out := map[string]metric{}
	set := func(name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[name] = metric{Value: v, Unit: unitOf(perLayer, name)}
	}
	open := in.w.open
	ph := in.traced
	attempted := math.Max(1, float64(len(ph)))
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// Attribution along the request path. The open loop's client
	// latency runs from the due time: the dispatcher's lateness (lag),
	// then the request goroutine's wait for a processor, then the
	// outermost span. What the spans leave uncovered is the benchmark's
	// own per-request work.
	var lags, handler []float64
	var latSum, unattributed, schedWait, hop, self, selfN float64
	for i := range ph {
		s := &ph[i]
		lat := float64(s.latency(open))
		lags = append(lags, float64(s.dispatched-s.due)/1e6)
		outer := s.replica
		if open {
			outer = s.router
			hop += float64((s.router[1] - s.router[0]) - (s.replica[1] - s.replica[0]))
			schedWait += float64(s.start - s.dispatched)
		}
		span := float64(s.replica[1] - s.replica[0])
		handler = append(handler, span/1e6)
		latSum += lat
		unattributed += float64(s.end-s.start) - float64(outer[1]-outer[0])
		if s.code == http.StatusOK {
			self += span/1e6 - s.elapsedMS
			selfN++
		}
	}
	sort.Float64s(lags)
	sort.Float64s(handler)
	set("bench.lag_p99_ms", quantile(lags, 0.99))
	set("bench.unattributed_frac", ratio(unattributed, latSum))
	set("bench.trace_overhead_frac", traceOverhead(in.traced, in.untraced, open))
	set("server.sched_wait_frac", ratio(schedWait, latSum))
	set("cluster.hop_frac", ratio(hop, latSum))
	set("cluster.imbalance", imbalance(in.routed0, in.routed1))
	set("server.handler_ms_p50", quantile(handler, 0.50))
	set("server.handler_ms_p99", quantile(handler, 0.99))
	set("server.self_ms_mean", ratio(self, selfN))

	byID := make(map[string]*obs.Event, len(in.events))
	for i := range in.events {
		byID[in.events[i].RequestID] = &in.events[i]
	}
	var waitMS float64
	var costErr []float64
	for i := range in.events {
		ev := &in.events[i]
		if ev.Cache == obs.CacheMiss && ev.CostAbsPctErr > 0 {
			costErr = append(costErr, ev.CostAbsPctErr)
		}
	}
	for i := range ph {
		if ev := byID[phaseIDPrefix+strconv.FormatInt(ph[i].seq, 10)]; ev != nil {
			waitMS += ev.QueueWaitMS
		}
	}
	sort.Float64s(costErr)
	set("server.wait_frac", ratio(waitMS*1e6, latSum))
	set("costmodel.abs_pct_err_p50", quantile(costErr, 0.5))

	d := func(series string) float64 { return in.after[series] - in.before[series] }
	set("server.shed_frac", d("activetime_admission_shed_total")/attempted)
	set("solvecache.hit_frac", d("activetime_cache_hits_total")/attempted)
	set("solvecache.coalesced_frac", d("activetime_cache_coalesced_total")/attempted)
	set("solvecache.evictions_per_kreq", 1000*d("activetime_cache_evictions_total")/attempted)
	set("solvecache.warm_start_frac",
		(d(`activetime_warm_starts_total{kind="raise_g"}`)+d(`activetime_warm_starts_total{kind="superset"}`))/attempted)
	set("solvecache.warm_fallback_frac", d("activetime_warm_fallbacks_total")/attempted)
	set("solvecache.warm_mb", in.after["activetime_cache_warm_bytes"]/(1<<20))

	// Routing over every answered request; solve times over every
	// non-cached one, set-up included, so hot-permuted (all hits once
	// set up) still reports its solver.
	routes := make([]float64, len(algNames))
	var answered float64
	for i := range ph {
		if ph[i].code == http.StatusOK && ph[i].alg >= 0 {
			routes[ph[i].alg]++
			answered++
		}
	}
	var solveMS []float64
	algMS := make([]float64, len(algNames))
	var coldSum, coldN, warmSum, warmN, solveSum float64
	for _, set := range [][]sample{in.warm, ph} {
		for i := range set {
			s := &set[i]
			if s.code != http.StatusOK || s.cached || s.alg < 0 {
				continue
			}
			solveMS = append(solveMS, s.elapsedMS)
			algMS[s.alg] += s.elapsedMS
			solveSum += s.elapsedMS
			if s.warm {
				warmSum, warmN = warmSum+s.elapsedMS, warmN+1
			} else {
				coldSum, coldN = coldSum+s.elapsedMS, coldN+1
			}
		}
	}
	sort.Float64s(solveMS)
	set("solve.ms_mean", ratio(solveSum, float64(len(solveMS))))
	set("solve.ms_p50", quantile(solveMS, 0.5))
	set("solve.ms_p99", quantile(solveMS, 0.99))
	set("solve.warm_speedup", ratio(ratio(coldSum, coldN), ratio(warmSum, warmN)))
	for i, a := range algNames {
		set("route."+algKey(a)+"_frac", ratio(routes[i], answered))
		set("solve."+algKey(a)+"_time_frac", ratio(algMS[i], solveSum))
	}

	// Solver internals, from the traced server's registry since it was
	// built (set-up included).
	solves := in.after["activetime_solves_total"]
	var stageTotal float64
	for _, st := range metrics.Stages() {
		stageTotal += in.after[fmt.Sprintf("activetime_stage_seconds_total{stage=%q}", st.String())]
	}
	set("core.stage_ms_per_solve", ratio(1000*stageTotal, solves))
	for _, st := range coreStages {
		set("core."+st.String()+"_frac",
			ratio(in.after[fmt.Sprintf("activetime_stage_seconds_total{stage=%q}", st.String())], stageTotal))
	}
	for _, c := range solveCounts {
		set(c.name, ratio(in.after[fmt.Sprintf("activetime_ops_total{op=%q}", c.op)], solves))
	}
	for name, v := range in.probes {
		set(name, v)
	}
	return out
}

// traceOverhead compares mean latency over the requests every phase
// sent: each phase replays the plan from its start, so a request
// sequence number names the same request at the same point of the
// cache's fill in every phase.
func traceOverhead(traced []sample, untraced [][]sample, open bool) float64 {
	limit := int64(len(traced))
	for _, u := range untraced {
		if int64(len(u)) < limit {
			limit = int64(len(u))
		}
	}
	mean := func(sets ...[]sample) float64 {
		var sum, n float64
		for _, ss := range sets {
			for i := range ss {
				if ss[i].seq < limit && ss[i].code == http.StatusOK {
					sum += float64(ss[i].latency(open))
					n++
				}
			}
		}
		return sum / n
	}
	return mean(traced)/mean(untraced...) - 1
}

// imbalance is the busiest replica's share of routed requests over the
// mean share; 1 for a single server.
func imbalance(before, after []int64) float64 {
	if len(after) == 0 {
		return 1
	}
	var max, sum float64
	for i := range after {
		v := float64(after[i] - before[i])
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 1
	}
	return max / (sum / float64(len(after)))
}

// runProbes replays public calls of the request path over the
// workload's distinct bodies and decoded responses, one layer at a
// time, each for at least window, and reports the mean microseconds
// per call.
func runProbes(p *plan, responses []checked, window time.Duration) map[string]float64 {
	n := len(p.reqs)
	if n > probeBodies {
		n = probeBodies
	}
	bodies := make([][]byte, n)
	insts := make([]*instance.Instance, n)
	for i := range bodies {
		bodies[i] = p.reqs[i].body
		var req server.SolveRequest
		if json.Unmarshal(bodies[i], &req) == nil {
			insts[i], _ = instance.ReadJSON(bytes.NewReader(req.Instance))
		}
	}
	model := costmodel.Default()
	probe := func(n int, f func(i int)) float64 { return timeCalls(n, window, f) }
	out := map[string]float64{}
	out["instance.decode_us"] = probe(n, func(i int) {
		var req server.SolveRequest
		dec := json.NewDecoder(bytes.NewReader(bodies[i]))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) == nil {
			_, _ = instance.ReadJSON(bytes.NewReader(req.Instance))
		}
	})
	out["cluster.affinity_key_us"] = probe(n, func(i int) {
		var req struct {
			Instance json.RawMessage `json:"instance"`
		}
		if json.Unmarshal(bodies[i], &req) == nil {
			if in, err := instance.ReadJSON(bytes.NewReader(req.Instance)); err == nil {
				solvecache.CanonicalDigest(in)
			}
		}
	})
	out["activetime.route_us"] = probe(n, func(i int) {
		if insts[i] != nil {
			activetime.Route(insts[i], model, activetime.RouteLimits{})
		}
	})
	out["solvecache.digest_us"] = probe(n, func(i int) {
		if in := insts[i]; in != nil {
			solvecache.KeyFor(in, "nested95", false, false, false)
			solvecache.CanonicalOrder(in)
			solvecache.StructKeyFor(in, "nested95", false, false, false)
		}
	})
	orders := make([][]int, len(responses))
	for i := range responses {
		orders[i] = solvecache.CanonicalOrder(responses[i].in)
	}
	out["sched.relabel_us"] = probe(len(responses), func(i int) {
		responses[i].sched.Relabel(orders[i])
	})
	out["server.encode_us"] = probe(len(responses), func(i int) {
		var buf bytes.Buffer
		if responses[i].sched.WriteJSON(&buf) != nil {
			return
		}
		resp := responses[i].resp
		resp.Schedule = json.RawMessage(bytes.TrimSpace(buf.Bytes()))
		_ = json.NewEncoder(io.Discard).Encode(resp)
	})
	return out
}

// timeCalls times f over inputs 0..n-1, repeating the sweep until it
// has run for at least window, and returns the mean microseconds per
// call.
func timeCalls(n int, window time.Duration, f func(i int)) float64 {
	if n == 0 {
		return 0
	}
	var calls int
	start := time.Now()
	for time.Since(start) < window {
		for i := 0; i < n; i++ {
			f(i)
		}
		calls += n
	}
	return float64(time.Since(start).Microseconds()) / float64(calls)
}

// writeSpans writes the traced phase's spans as JSON lines: request id,
// layer, start and end in nanoseconds since the phase began, parent
// layer.
func writeSpans(path string, ss []sample, open bool) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	type span struct {
		RequestID string `json:"request_id"`
		Layer     string `json:"layer"`
		Start     int64  `json:"start_ns"`
		End       int64  `json:"end_ns"`
		Parent    string `json:"parent,omitempty"`
	}
	enc := json.NewEncoder(bw)
	for i := range ss {
		s := &ss[i]
		id := phaseIDPrefix + strconv.FormatInt(s.seq, 10)
		clientStart := s.start
		if open {
			clientStart = s.due
		}
		spans := []span{{id, layerNames[layerClient], clientStart, s.end, ""}}
		parent := layerNames[layerClient]
		if open {
			spans = append(spans, span{id, layerNames[layerRouter], s.router[0], s.router[1], parent})
			parent = layerNames[layerRouter]
		}
		spans = append(spans, span{id, fmt.Sprintf("%s-%d", layerNames[layerReplica], s.replicaIdx), s.replica[0], s.replica[1], parent})
		for _, sp := range spans {
			if err := enc.Encode(sp); err != nil {
				f.Close()
				return fmt.Errorf("write spans: %w", err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
