// Command activetime solves an active-time scheduling instance read
// from a JSON file (see internal/instance for the format) and prints
// the schedule.
//
// Usage:
//
//	activetime -in instance.json [-alg nested95] [-v] [-gantt] [-metrics]
//	activetime -in instance.json -stats        # append solver instrumentation as JSON
//	activetime -in instance.json -workers 4    # solve independent forests concurrently
//	activetime -in instance.json -trace t.json # export a chrome://tracing span trace
//	activetime -in instance.json -compare      # run and cross-check all solvers
//	activetime -in instance.json -timeout 30s  # abort the solve after 30 seconds
//
// Fatal errors are reported as one structured JSON line on stderr
// ({"tool":"activetime","error":<kind>,"detail":<message>}) with exit
// code 1, so scripted callers can parse failures reliably.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	activetime "repro"
	"repro/internal/crosscheck"
)

func main() {
	path := flag.String("in", "", "instance JSON file (required)")
	algNames := make([]string, 0, len(activetime.Algorithms()))
	for _, a := range activetime.Algorithms() {
		algNames = append(algNames, string(a))
	}
	alg := flag.String("alg", string(activetime.AlgNested95), "algorithm: "+strings.Join(algNames, " | "))
	verbose := flag.Bool("v", false, "print the full slot-by-slot schedule")
	gantt := flag.Bool("gantt", false, "print an ASCII Gantt chart")
	metrics := flag.Bool("metrics", false, "print schedule metrics")
	compare := flag.Bool("compare", false, "run every solver and cross-check consistency")
	exactLP := flag.Bool("exact-lp", false, "nested95: solve the LP in exact rational arithmetic")
	minimize := flag.Bool("minimize", false, "nested95: close removable slots after rounding")
	compact := flag.Bool("compact", false, "nested95: place slots to minimize power-on events")
	stats := flag.Bool("stats", false, "nested95, comb, auto: append solver instrumentation (stage times, pivot, flow and comb counters) as JSON")
	workers := flag.Int("workers", 1, "nested95: worker-pool size for solving independent forests concurrently")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON span trace of the solve to this file (load in chrome://tracing or Perfetto)")
	outPath := flag.String("out", "", "write the schedule to this file as one line of compact JSON")
	timeout := flag.Duration("timeout", 0, "abort the solve after this wall time (0 = unlimited)")
	flag.Parse()

	if *path == "" {
		fmt.Fprintln(os.Stderr, "activetime: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	in, err := activetime.LoadInstance(*path)
	if err != nil {
		fatal("load_instance", err)
	}

	if *compare {
		rep, err := crosscheck.Run(in)
		if err != nil {
			fatal("compare", err)
		}
		fmt.Print(rep)
		if !rep.OK() {
			os.Exit(1)
		}
		return
	}

	var tracer *activetime.Tracer
	if *tracePath != "" {
		tracer = activetime.NewTracer()
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var res *activetime.Result
	if activetime.Algorithm(*alg) == activetime.AlgNested95 {
		res, err = activetime.SolveNested95Ctx(ctx, in, activetime.SolveOptions{
			ExactLP:    *exactLP,
			Minimalize: *minimize,
			Compact:    *compact,
			Workers:    *workers,
			Trace:      tracer,
		})
	} else {
		res, err = activetime.SolveTracedCtx(ctx, in, activetime.Algorithm(*alg), tracer)
	}
	if err != nil && errors.Is(err, context.DeadlineExceeded) {
		fatal("timeout", err)
	}
	if err != nil {
		fatal("solve", err)
	}
	if tracer != nil {
		if err := tracer.WriteChromeTraceFile(*tracePath); err != nil {
			fatal("write_trace", err)
		}
	}
	fmt.Printf("algorithm:    %s\n", res.Algorithm)
	fmt.Printf("jobs:         %d (g=%d, nested=%v)\n", in.N(), in.G, in.Nested())
	fmt.Printf("active slots: %d\n", res.ActiveSlots)
	if res.LPLowerBound > 0 {
		fmt.Printf("LP bound:     %.4f (certified ratio %.4f, guarantee %.4f)\n",
			res.LPLowerBound, res.CertifiedRatio, activetime.ApproxRatio)
	}
	if *metrics {
		fmt.Printf("metrics:      %s\n", res.Schedule.ComputeMetrics())
	}
	if *stats {
		if res.Stats == nil {
			fmt.Fprintf(os.Stderr, "activetime: -stats: algorithm %s records no instrumentation (nested95, comb and auto do)\n", res.Algorithm)
		} else {
			b, err := json.MarshalIndent(res.Stats, "", "  ")
			if err != nil {
				fatal("stats_encode", err)
			}
			fmt.Println("stats:")
			fmt.Println(string(b))
		}
	}
	if *gantt {
		if h, ok := in.Horizon(); ok {
			fmt.Print(res.Schedule.Gantt(h.Start, h.End))
		}
	}
	if *verbose {
		fmt.Println(res.Schedule)
	}
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal("write_schedule", err)
		}
		err = res.Schedule.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal("write_schedule", err)
		}
	}
}

// fatal reports err as a single structured JSON line on stderr and
// exits 1. kind is a stable machine-readable failure class.
func fatal(kind string, err error) {
	line, merr := json.Marshal(map[string]string{
		"tool":   "activetime",
		"error":  kind,
		"detail": err.Error(),
	})
	if merr != nil {
		line = []byte(fmt.Sprintf(`{"tool":"activetime","error":%q}`, kind))
	}
	fmt.Fprintln(os.Stderr, string(line))
	os.Exit(1)
}
