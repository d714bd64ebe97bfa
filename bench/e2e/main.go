// Command e2e is the service's end-to-end benchmark. It drives the
// real server handler (and, for fleet-open, the cluster router in front
// of three replicas) in process, with no sockets, under five traffic
// mixes, and prints every metric by name and unit as one JSON line.
//
// One run of one workload:
//
//	go run ./e2e -workload cold-mix -seed 7 -seconds 10 -trace 0
//
// -trace 1 runs the traced variant and prints the per-layer metrics
// instead. Without -workload, -runs N runs every workload N times, each
// in a child process, and writes the result lines under -out; -compare
// A B applies the benchmark's regression rules to two such
// directories. See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (cold-mix | hot-permuted | near-miss | wide-horizon | fleet-open)")
	seed := fs.Int64("seed", defaultSeed, "input seed; the pinned fingerprints hold at the default")
	seconds := fs.Float64("seconds", 20, "length of the measured phase in seconds (BENCHMARK.json's run_seconds)")
	trace := fs.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	quick := fs.Bool("quick", false, "small inputs and one set-up, for smoke tests")
	spans := fs.String("spans", "", "traced runs: write every span to this file as JSON lines")
	runs := fs.Int("runs", 0, "without -workload: run every workload this many times into -out")
	out := fs.String("out", "", "directory for -runs results")
	compare := fs.Bool("compare", false, "compare two -runs result directories: -compare A B")
	benchJSON := fs.String("bench-json", "BENCHMARK.json", "benchmark definition holding the bounds -compare applies")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "e2e: -compare needs two result directories")
			return 2
		}
		return runCompare(*benchJSON, fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *name == "" && *runs > 0:
		if *out == "" {
			fmt.Fprintln(stderr, "e2e: -runs needs -out")
			return 2
		}
		return runMany(*runs, *seed, *seconds, *out, stdout, stderr)
	case *name == "":
		fmt.Fprintln(stderr, "e2e: -workload, -runs or -compare is required")
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "e2e: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "e2e: -seconds must be positive")
		return 2
	}
	cfg := runConfig{
		w: w, seed: *seed, dur: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, quick: *quick, spans: *spans, setups: 5, probeWindow: 200 * time.Millisecond, verbose: stderr,
	}
	if *quick {
		cfg.setups, cfg.probeWindow = 1, 20*time.Millisecond
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
