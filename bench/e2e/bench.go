package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/loadgen"
	"repro/internal/obs"
)

// runConfig is one invocation's settings.
type runConfig struct {
	w      *workload
	seed   int64
	dur    time.Duration
	trace  bool
	quick  bool
	spans  string // traced runs: write spans here as JSON lines
	setups int
	// probeWindow is how long each replay probe repeats its sweep.
	probeWindow time.Duration
	verbose     io.Writer
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// probeBodies caps the replay probes' inputs.
const probeBodies = 256

// prepared is a workload's generated input, moved off the Go heap.
type prepared struct {
	plan     *plan
	arrivals []time.Duration
	mem      []byte
}

func prepare(cfg runConfig) (*prepared, error) {
	t0 := time.Now()
	rng := rand.New(rand.NewSource(seedFor(cfg.w.name, cfg.seed)))
	p, err := cfg.w.build(rng, cfg.quick)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", cfg.w.name, err)
	}
	fp := p.fingerprint()
	if !cfg.quick && cfg.seed == defaultSeed && cfg.w.fingerprint != "" && fp != cfg.w.fingerprint {
		return nil, fmt.Errorf("%s: request bodies at seed %d hash to %s, pinned %s: the generator drifted",
			cfg.w.name, cfg.seed, fp, cfg.w.fingerprint)
	}
	fmt.Fprintf(cfg.verbose, "%s: %d bodies (+%d warm-up) generated in %.2fs, fingerprint %s\n",
		cfg.w.name, len(p.reqs), len(p.warmup), time.Since(t0).Seconds(), fp)
	pr := &prepared{plan: p}
	if cfg.w.open {
		pr.arrivals = arrivals(rng, cfg.w.rate, cfg.dur)
	}
	// Request bodies live off the Go heap, so the benchmark's inputs
	// neither count in peak_heap_mb nor slow the service's GC pacing.
	total := 0
	for _, set := range [][]request{p.warmup, p.reqs} {
		for _, r := range set {
			total += len(r.body)
		}
	}
	if pr.mem, err = offHeap(total); err != nil {
		return nil, fmt.Errorf("map request bodies: %w", err)
	}
	off := 0
	for _, set := range [][]request{p.warmup, p.reqs} {
		for i := range set {
			n := copy(pr.mem[off:], set[i].body)
			set[i].body = pr.mem[off : off+n : off+n]
			off += n
		}
	}
	return pr, nil
}

// release unmaps the request bodies; nothing may use them afterwards.
func (pr *prepared) release() {
	if pr.mem != nil {
		_ = syscall.Munmap(pr.mem) // a private mapping: failure leaks address space only
	}
}

// run executes one benchmark run and returns its output line.
func run(cfg runConfig) (*result, error) {
	// One processor per core, whatever the environment asks for.
	runtime.GOMAXPROCS(runtime.NumCPU())
	pr, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	defer pr.release()
	speed := startSpeedProbe()
	defer speed.finish()
	if cfg.trace {
		return runTraced(cfg, pr, speed)
	}
	return runE2E(cfg, pr, speed)
}

// atReferenceSpeed rescales timings to the reference machine speed:
// durations divide by the speed factor, and a closed loop's throughput,
// which the machine's speed bounds, multiplies by it. The open loop's
// throughput is its arrival rate and stays as measured.
func atReferenceSpeed(m map[string]metric, factor float64, open bool) {
	for name, v := range m {
		switch v.Unit {
		case "s", "ms", "us":
			v.Value /= factor
		case "1/s":
			if !open {
				v.Value *= factor
			}
		}
		m[name] = v
	}
}

// setUp builds the system and runs the warm-up pass; it returns the
// system, the warm-up samples and the set-up time.
func setUp(cfg runConfig, pr *prepared, traced bool, sink io.Writer) (*system, []sample, time.Duration, error) {
	t0 := time.Now()
	sys, err := newSystem(cfg.w, traced, sink)
	if err != nil {
		return nil, nil, 0, err
	}
	var warm []sample
	if len(pr.plan.warmup) > 0 {
		stores, _ := clientStores(0) // no mapping, cannot fail
		closedLoop(&phaseConfig{h: sys.entry, reqs: pr.plan.warmup, count: len(pr.plan.warmup), traced: traced, idPrefix: warmIDPrefix}, t0, stores)
		warm = collect(stores)
	}
	took := time.Since(t0)
	for _, s := range warm {
		if s.code != http.StatusOK {
			sys.close()
			return nil, nil, 0, fmt.Errorf("%s: warm-up request %d: HTTP %d", cfg.w.name, s.seq, s.code)
		}
	}
	return sys, warm, took, nil
}

// phaseFor builds the measured phase's configuration.
func phaseFor(cfg runConfig, pr *prepared, sys *system, dur time.Duration, traced bool) (*phaseConfig, error) {
	expect := int(cfg.w.rps*dur.Seconds()) + 64
	every := cfg.w.sampleEvery
	if cfg.quick {
		every = 1
	}
	entries := expect/every + 64
	arena, err := newCheckArena(cfg.w.checkMB<<20, entries)
	if err != nil {
		return nil, fmt.Errorf("map check arena: %w", err)
	}
	pc := &phaseConfig{h: sys.entry, reqs: pr.plan.reqs, dur: dur, traced: traced,
		sampleEvery: every, capHint: 2 * expect, arena: arena, idPrefix: phaseIDPrefix}
	if cfg.w.open {
		pc.arrivals = pr.arrivals
		if dur < cfg.dur {
			n := sort.Search(len(pc.arrivals), func(i int) bool { return pc.arrivals[i] >= dur })
			pc.arrivals = pc.arrivals[:n]
		}
	}
	return pc, nil
}

func runE2E(cfg runConfig, pr *prepared, speed *speedProbe) (*result, error) {
	runtime.GC()
	baseLive := readUint(liveMetric)

	// Set up several times and report the median; the last system
	// built is the one measured.
	var sys *system
	setupStart := time.Now()
	setups := make([]float64, 0, cfg.setups)
	for k := 0; k < cfg.setups; k++ {
		if sys != nil {
			sys.close()
		}
		var took time.Duration
		var err error
		if sys, _, took, err = setUp(cfg, pr, false, nil); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer sys.close()
	setupEnd := time.Now()
	runtime.GC()

	pc, err := phaseFor(cfg, pr, sys, cfg.dur, false)
	if err != nil {
		return nil, err
	}
	defer pc.arena.release()
	phaseStart := time.Now()
	ph, err := runPhase(pc)
	phaseEnd := time.Now()
	speed.finish()
	if err != nil {
		return nil, err
	}
	factor := speed.factor(phaseStart, phaseEnd)
	checks := checkOutputs(pr.plan.reqs, pc.arena.bodies(), 0)
	fmt.Fprintf(cfg.verbose, "%s: %d requests in %.2fs, %d schedules checked, speed factor %.3f\n",
		cfg.w.name, len(ph.samples), ph.wall.Seconds(), checks.checked, factor)

	res := &result{Attempted: len(ph.samples), Metrics: map[string]metric{}}
	set := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unitOf(endToEnd, name)} }

	lat := make([]float64, len(ph.samples)) // ms; failures +Inf
	var okN, sloN int
	var respBytes, active, lb float64
	for i := range ph.samples {
		s := &ph.samples[i]
		ms := float64(s.latency(cfg.w.open)) / 1e6
		if s.code != http.StatusOK || checks.failed[s.seq] {
			lat[i] = math.Inf(1)
			continue
		}
		lat[i] = ms
		okN++
		if ms/factor <= cfg.w.sloMS {
			sloN++
		}
		respBytes += float64(s.size)
		active += float64(s.active)
		lb += float64(pr.plan.reqs[s.seq%int64(len(pr.plan.reqs))].lb)
	}
	res.Failed = res.Attempted - okN
	res.Correct = res.Attempted > 0 && len(checks.failed) == 0 && checks.checked > 0
	if checks.first != nil {
		fmt.Fprintf(cfg.verbose, "%s: output check failed: %v\n", cfg.w.name, checks.first)
	}
	sort.Float64s(lat)
	perReq := func(v float64) float64 { return v / math.Max(1, float64(res.Attempted)) }
	set("throughput_rps", float64(okN)/ph.wall.Seconds())
	set("p50_ms", finite(quantile(lat, 0.50)))
	set("p99_ms", finite(quantile(lat, 0.99)))
	set("slo_frac", float64(sloN)/math.Max(1, float64(res.Attempted)))
	set("ok_frac", float64(okN)/math.Max(1, float64(res.Attempted)))
	set("quality_ratio", active/math.Max(1, lb))
	set("resp_kb_per_req", respBytes/math.Max(1, float64(okN))/1024)
	set("cpu_ms_per_req", perReq(float64(ph.cpu)/1e6))
	set("alloc_kb_per_req", perReq(float64(ph.alloc)/1024))
	set("peak_heap_mb", float64(int64(ph.peakLive)-int64(baseLive))/(1<<20))
	atReferenceSpeed(res.Metrics, factor, cfg.w.open)
	// Set-up takes about half a second and the machine's speed moves
	// within seconds, so set-up is scaled by the speed while it ran.
	// Against scaling by the phase's speed, this cut its spread over ten
	// seeds from 0.21 to 0.07 on cold-mix and from 0.19 to 0.13 on
	// fleet-open, and moved it by at most 0.03 elsewhere.
	set("setup_s", median(setups)/speed.factor(setupStart, setupEnd))
	return res, nil
}

// eventSink is the traced servers' wide-event sink: lines are kept in
// memory and decoded once the run ends.
type eventSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (e *eventSink) Write(p []byte) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.buf.Write(p)
}

func (e *eventSink) events() ([]obs.Event, error) {
	var out []obs.Event
	dec := json.NewDecoder(&e.buf)
	for dec.More() {
		var ev obs.Event
		if err := dec.Decode(&ev); err != nil {
			return nil, fmt.Errorf("decode wide event: %w", err)
		}
		out = append(out, ev)
	}
	return out, nil
}

// runTraced measures the per-layer metrics. A traced phase on a fresh
// system records spans and wide events; untraced phases of a quarter of
// the run before and after it, each on its own fresh system, give the
// reference latency, so process warm-up cancels out of the tracing
// overhead. Every phase replays the plan from its start.
func runTraced(cfg runConfig, pr *prepared, speed *speedProbe) (*result, error) {
	var untraced [][]sample
	runUntraced := func() error {
		sys, _, _, err := setUp(cfg, pr, false, nil)
		if err != nil {
			return err
		}
		defer sys.close()
		pc, err := phaseFor(cfg, pr, sys, cfg.dur/4, false)
		if err != nil {
			return err
		}
		defer pc.arena.release()
		ph, err := runPhase(pc)
		if err != nil {
			return err
		}
		untraced = append(untraced, ph.samples)
		return nil
	}
	if err := runUntraced(); err != nil {
		return nil, err
	}
	runtime.GC()

	sink := &eventSink{}
	sys, warm, _, err := setUp(cfg, pr, true, sink)
	if err != nil {
		return nil, err
	}
	before, err := sys.scrape()
	if err != nil {
		sys.close()
		return nil, err
	}
	routed0 := sys.routed()
	pc, err := phaseFor(cfg, pr, sys, cfg.dur/2, true)
	if err != nil {
		sys.close()
		return nil, err
	}
	defer pc.arena.release()
	ph, err := runPhase(pc)
	if err != nil {
		sys.close()
		return nil, err
	}
	after, err := sys.scrape()
	routed1 := sys.routed()
	sys.close()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	if err := runUntraced(); err != nil {
		return nil, err
	}

	events, err := sink.events()
	if err != nil {
		return nil, err
	}
	checks := checkOutputs(pr.plan.reqs, pc.arena.bodies(), probeBodies)
	cross := loadgen.CrossCheckEvents(clientResults(warm, ph.samples), events)
	fmt.Fprintf(cfg.verbose, "%s: traced %d requests (untraced %d+%d), %d events, %d schedules checked, cross-check pass=%v\n",
		cfg.w.name, len(ph.samples), len(untraced[0]), len(untraced[1]), len(events), checks.checked, cross.Pass)
	if checks.first != nil {
		fmt.Fprintf(cfg.verbose, "%s: output check failed: %v\n", cfg.w.name, checks.first)
	}
	if !cross.Pass {
		fmt.Fprintf(cfg.verbose, "%s: wide-event cross-check failed: %+v\n", cfg.w.name, cross)
	}
	if cfg.spans != "" {
		if err := writeSpans(cfg.spans, ph.samples, cfg.w.open); err != nil {
			return nil, err
		}
	}

	res := &result{Attempted: len(ph.samples)}
	for _, u := range untraced {
		res.Attempted += len(u)
		for i := range u {
			if u[i].code != http.StatusOK {
				res.Failed++
			}
		}
	}
	for i := range ph.samples {
		if ph.samples[i].code != http.StatusOK || checks.failed[ph.samples[i].seq] {
			res.Failed++
		}
	}
	res.Correct = res.Attempted > 0 && len(checks.failed) == 0 && checks.checked > 0 && cross.Pass
	probes := runProbes(pr.plan, checks.ok, cfg.probeWindow)
	speed.finish()
	factor := speed.factor(speed.start, time.Now())
	res.Metrics = layerMetrics(layerInputs{
		w: cfg.w, untraced: untraced, traced: ph.samples, warm: warm, events: events,
		before: before, after: after, routed0: routed0, routed1: routed1, probes: probes,
	})
	atReferenceSpeed(res.Metrics, factor, cfg.w.open)
	res.Metrics["bench.speed_factor"] = metric{Value: factor, Unit: unitOf(perLayer, "bench.speed_factor")}
	return res, nil
}

// clientResults converts samples into loadgen results for the
// wide-event cross-check.
func clientResults(warm, phase []sample) []loadgen.Result {
	out := make([]loadgen.Result, 0, len(warm)+len(phase))
	add := func(set []sample, prefix string) {
		for i := range set {
			s := &set[i]
			out = append(out, loadgen.Result{Index: int(s.seq), Status: int(s.code),
				RequestID: prefix + strconv.FormatInt(s.seq, 10), Class: obs.StatusForHTTP(int(s.code), "", s.cached)})
		}
	}
	add(warm, warmIDPrefix)
	add(phase, phaseIDPrefix)
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile is the exact nearest-rank quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// finite maps the +Inf of a failure-dominated quantile onto the
// largest float JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}
