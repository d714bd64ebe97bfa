package loadgen

import (
	"encoding/json"
	"io"
	"time"
)

// LatencySummary is the latency digest of a run, in milliseconds.
type LatencySummary struct {
	P50  float64 `json:"p50_ms"`
	P90  float64 `json:"p90_ms"`
	P99  float64 `json:"p99_ms"`
	P999 float64 `json:"p999_ms"`
	Mean float64 `json:"mean_ms"`
	Max  float64 `json:"max_ms"`
}

// PhaseStat is one slice of the run's timeline: the requests that
// completed inside [StartMS, EndMS), their error count, and the
// slice's completion throughput. Phases let a report show ramp-up,
// steady state, and (for bursty plans) the shed spikes.
type PhaseStat struct {
	Phase         int     `json:"phase"`
	StartMS       float64 `json:"start_ms"`
	EndMS         float64 `json:"end_ms"`
	Completed     int64   `json:"completed"`
	Errors        int64   `json:"errors"`
	ThroughputRPS float64 `json:"throughput_rps"`
}

// Report is the machine-readable outcome of one loadgen run; it is
// what atload emits as JSON. The service's benchmark of record is
// bench/e2e, not this report.
type Report struct {
	GeneratedBy string `json:"generated_by"`
	Model       string `json:"model"`
	Target      string `json:"target"`
	Seed        int64  `json:"seed"`
	Concurrency int    `json:"concurrency,omitempty"`

	Requests      int     `json:"requests"`
	DurationMS    float64 `json:"duration_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`

	// Counts keys every outcome class (ok, cached, shed, timeout,
	// canceled, client_error, server_error, transport_error) to its
	// request count; classes with zero requests are still present so
	// reports diff cleanly.
	Counts map[string]int64 `json:"counts"`

	CacheHits int64 `json:"cache_hits"`
	Shed      int64 `json:"shed"`
	// ShedQueued counts async jobs accepted then evicted (job API
	// only); Shed counts 429s at admission.
	ShedQueued int64 `json:"shed_queued,omitempty"`
	Timeouts   int64 `json:"timeouts"`
	Canceled   int64 `json:"canceled"`
	HTTP5xx    int64 `json:"http_5xx"`
	Errors     int64 `json:"errors"`

	ErrorRate float64        `json:"error_rate"`
	Latency   LatencySummary `json:"latency"`
	Phases    []PhaseStat    `json:"phases"`

	// Algorithms counts successful requests by the solver the server
	// actually ran (as reported in each response body). With the
	// default "auto" plans this is the router's output — e.g. a mixed
	// plan shows nested95 for small nested instances, comb for deep
	// ones, and greedy-minimal for general windows.
	Algorithms map[string]int64 `json:"algorithms,omitempty"`

	// WarmStarts counts successful requests whose solve resumed
	// retained near-miss state (response warm_start=true), with
	// WarmKinds breaking them out by kind (raise_g, superset). Delta
	// plans (-delta) use these to show the warm-path hit rate.
	WarmStarts int64            `json:"warm_starts,omitempty"`
	WarmKinds  map[string]int64 `json:"warm_kinds,omitempty"`

	// PerClass breaks the run out by SLO class on async runs; nil for
	// synchronous /solve runs (which carry no class).
	PerClass map[string]*ClassStat `json:"per_class,omitempty"`

	SLO *SLOResult `json:"slo,omitempty"`

	// CrossCheck reconciles the client-side results with the server's
	// wide-event log when atload ran with -events-file (in-process
	// runs only).
	CrossCheck *CrossCheck `json:"events_crosscheck,omitempty"`

	// Fleet is the per-replica + aggregate breakdown of a -fleet run
	// (N in-process replicas behind the cluster router); nil otherwise.
	Fleet *FleetReport `json:"fleet,omitempty"`
}

// FleetReplica is one replica's slice of a fleet run: the router's
// routing counters for it plus the replica's own solve-cache totals
// and its longest-window SLO success ratio.
type FleetReplica struct {
	Name          string  `json:"name"`
	Healthy       bool    `json:"healthy"`
	Routed        int64   `json:"routed"`
	ForwardErrors int64   `json:"forward_errors,omitempty"`
	Ejections     int64   `json:"ejections,omitempty"`
	Readmissions  int64   `json:"readmissions,omitempty"`
	Solves        int64   `json:"solves"`
	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	SuccessRatio  float64 `json:"success_ratio"`
}

// FleetReport is the fleet block of a -fleet run. CacheHitRate is the
// fleet-wide hits/(hits+misses) — the number the routing-policy
// experiments (EXPERIMENTS.md E23) compare: affinity routing keeps a
// hot instance on one replica's cache, so its aggregate rate beats
// policies that spray the same instance across every replica's cache.
type FleetReport struct {
	Policy       string         `json:"policy"`
	Replicas     []FleetReplica `json:"replicas"`
	CacheHits    int64          `json:"cache_hits"`
	CacheMisses  int64          `json:"cache_misses"`
	CacheHitRate float64        `json:"cache_hit_rate"`
	SuccessRatio float64        `json:"success_ratio"`
}

// ClassStat is one SLO class's slice of an async run.
type ClassStat struct {
	Requests   int64          `json:"requests"`
	Done       int64          `json:"done"`
	Shed       int64          `json:"shed"`
	ShedQueued int64          `json:"shed_queued"`
	Canceled   int64          `json:"canceled"`
	Errors     int64          `json:"errors"`
	Latency    LatencySummary `json:"latency"`
}

// allClasses fixes the set of keys every report carries.
var allClasses = []string{
	ClassOK, ClassCached, ClassShed, ClassShedQueued, ClassTimeout,
	ClassCanceled, ClassClientErr, ClassServerErr, ClassTransport,
}

// isError reports whether a class counts against the SLO error rate:
// everything that is not a successful solve (fresh or cached).
func isError(class string) bool {
	return class != ClassOK && class != ClassCached
}

// reportPhases is the number of timeline slices in a report.
const reportPhases = 10

// BuildReport folds per-request results into the run report.
// model/target/seed/concurrency annotate provenance; wall is the
// run's measured wall time.
func BuildReport(results []Result, wall time.Duration, model, target string, seed int64, concurrency int) *Report {
	r := &Report{
		GeneratedBy: "atload",
		Model:       model,
		Target:      target,
		Seed:        seed,
		Concurrency: concurrency,
		Requests:    len(results),
		DurationMS:  float64(wall.Microseconds()) / 1e3,
		Counts:      make(map[string]int64, len(allClasses)),
	}
	for _, c := range allClasses {
		r.Counts[c] = 0
	}

	hist := NewHistogram()
	classHists := make(map[string]*Histogram)
	// Success-only latency: shed and transport failures return in
	// microseconds and would drag percentiles toward zero, hiding the
	// latency the surviving requests actually saw.
	for _, res := range results {
		r.Counts[res.Class]++
		switch res.Class {
		case ClassOK, ClassCached:
			hist.Observe(res.LatencyMS / 1e3)
		}
		if res.Class == ClassCached {
			r.CacheHits++
		}
		if res.Algorithm != "" {
			if r.Algorithms == nil {
				r.Algorithms = make(map[string]int64)
			}
			r.Algorithms[res.Algorithm]++
		}
		if res.WarmStart {
			r.WarmStarts++
			if r.WarmKinds == nil {
				r.WarmKinds = make(map[string]int64)
			}
			r.WarmKinds[res.WarmKind]++
		}
		if isError(res.Class) {
			r.Errors++
		}
		if res.Status >= 500 {
			r.HTTP5xx++
		}
		if res.SLOClass != "" {
			if r.PerClass == nil {
				r.PerClass = make(map[string]*ClassStat)
			}
			cs := r.PerClass[res.SLOClass]
			if cs == nil {
				cs = &ClassStat{}
				r.PerClass[res.SLOClass] = cs
				classHists[res.SLOClass] = NewHistogram()
			}
			cs.Requests++
			switch res.Class {
			case ClassOK, ClassCached:
				cs.Done++
				classHists[res.SLOClass].Observe(res.LatencyMS / 1e3)
			case ClassShed:
				cs.Shed++
			case ClassShedQueued:
				cs.ShedQueued++
			case ClassCanceled:
				cs.Canceled++
			}
			if isError(res.Class) {
				cs.Errors++
			}
		}
	}
	for class, cs := range r.PerClass {
		cs.Latency = summarize(classHists[class])
	}
	r.Shed = r.Counts[ClassShed]
	r.ShedQueued = r.Counts[ClassShedQueued]
	r.Timeouts = r.Counts[ClassTimeout]
	r.Canceled = r.Counts[ClassCanceled]
	if r.Requests > 0 {
		r.ErrorRate = float64(r.Errors) / float64(r.Requests)
	}
	if sec := wall.Seconds(); sec > 0 {
		r.ThroughputRPS = float64(r.Requests-int(r.Counts[ClassTransport])) / sec
	}
	r.Latency = summarize(hist)
	r.Phases = buildPhases(results, r.DurationMS)
	return r
}

// summarize digests a histogram (seconds) into milliseconds.
func summarize(hist *Histogram) LatencySummary {
	return LatencySummary{
		P50:  hist.Quantile(0.50) * 1e3,
		P90:  hist.Quantile(0.90) * 1e3,
		P99:  hist.Quantile(0.99) * 1e3,
		P999: hist.Quantile(0.999) * 1e3,
		Mean: hist.Mean() * 1e3,
		Max:  hist.Max() * 1e3,
	}
}

// buildPhases slices [0, durationMS) into reportPhases equal windows
// and bins each result by its completion time.
func buildPhases(results []Result, durationMS float64) []PhaseStat {
	if durationMS <= 0 || len(results) == 0 {
		return nil
	}
	width := durationMS / reportPhases
	phases := make([]PhaseStat, reportPhases)
	for i := range phases {
		phases[i] = PhaseStat{
			Phase:   i,
			StartMS: float64(i) * width,
			EndMS:   float64(i+1) * width,
		}
	}
	for _, res := range results {
		done := res.StartMS + res.LatencyMS
		i := int(done / width)
		if i >= reportPhases {
			i = reportPhases - 1
		}
		if i < 0 {
			i = 0
		}
		phases[i].Completed++
		if isError(res.Class) {
			phases[i].Errors++
		}
	}
	for i := range phases {
		if width > 0 {
			phases[i].ThroughputRPS = float64(phases[i].Completed) / (width / 1e3)
		}
	}
	return phases
}

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
