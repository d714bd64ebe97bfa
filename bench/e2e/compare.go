package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// record is one stored run: the output line plus what produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

// runMany runs every workload n times untraced, then once traced, each
// run in its own child process with the next seed, appends the result
// lines to dir/<workload>.jsonl and writes dir/summary.json.
func runMany(n int, seed int64, seconds float64, dir string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 1
	}
	for round := 0; round <= n; round++ {
		trace := 0
		if round == n {
			trace = 1
		}
		for _, w := range workloads {
			rec := record{Workload: w.name, Seed: seed + int64(round), Trace: trace}
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(rec.Seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
			var out bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = &out, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "e2e: %s: %v\n", w.name, err)
				return 1
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.result); err != nil {
				fmt.Fprintf(stderr, "e2e: %s: result line: %v\n", w.name, err)
				return 1
			}
			line, _ := json.Marshal(rec) // plain data: cannot fail
			f, err := os.OpenFile(filepath.Join(dir, w.name+".jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
			if err != nil {
				fmt.Fprintln(stderr, "e2e:", err)
				return 1
			}
			_, werr := f.Write(append(line, '\n'))
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				fmt.Fprintln(stderr, "e2e:", werr)
				return 1
			}
			fmt.Fprintf(stdout, "%s seed=%d trace=%d correct=%v attempted=%d\n", w.name, rec.Seed, trace, rec.Correct, rec.Attempted)
		}
	}
	if err := summarize(dir); err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 1
	}
	return 0
}

// stat is one metric over a workload's runs; spread is the
// interquartile distance over the median, as the bounds are checked.
type stat struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
	Values []float64 `json:"values"`
}

type workloadSummary struct {
	Seeds     []int64         `json:"seeds"`
	Attempted []int           `json:"attempted"`
	Failed    []int           `json:"failed"`
	EndToEnd  map[string]stat `json:"end_to_end"`
	PerLayer  map[string]stat `json:"per_layer"`
}

// summarize writes dir/summary.json: every metric's median, quartiles
// and spread per workload.
func summarize(dir string) error {
	out := map[string]*workloadSummary{}
	for trace, into := range []func(*workloadSummary) map[string]stat{
		func(s *workloadSummary) map[string]stat { return s.EndToEnd },
		func(s *workloadSummary) map[string]stat { return s.PerLayer },
	} {
		recs, err := loadRecords(dir, trace)
		if err != nil {
			return err
		}
		for name, rs := range recs {
			s := out[name]
			if s == nil {
				s = &workloadSummary{EndToEnd: map[string]stat{}, PerLayer: map[string]stat{}}
				out[name] = s
			}
			if trace == 0 {
				for _, r := range rs {
					s.Seeds = append(s.Seeds, r.Seed)
					s.Attempted = append(s.Attempted, r.Attempted)
					s.Failed = append(s.Failed, r.Failed)
				}
			}
			for m := range rs[0].Metrics {
				v := values(rs, m)
				q1, _, q3 := quartiles(v)
				into(s)[m] = stat{Median: median(v), Q1: q1, Q3: q3, Spread: spread(v), Values: v}
			}
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "summary.json"), append(data, '\n'), 0o644)
}

// benchDef is the part of BENCHMARK.json -compare reads.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadRecords reads the records of the given trace mode under dir, by
// workload.
func loadRecords(dir string, trace int) (map[string][]record, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return nil, err
	}
	out := map[string][]record{}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			var r record
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			if r.Trace == trace {
				out[r.Workload] = append(out[r.Workload], r)
			}
		}
	}
	return out, nil
}

// quartiles matches Python's statistics.quantiles(xs, n=4), the
// default exclusive method.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// verdict classifies one (workload, metric) pair of run sets a (the
// parent) and b (the change) under the choosing-metrics rules.
type verdict struct {
	medA, medB, spreadA, spreadB, worse, wins float64
	q1A, q3A, q1B, q3B                        float64
	label                                     string
}

// judge applies the rules in order: a gain needs the change to win at
// least nine in ten index-matched pairs (ties count for neither) and
// the medians to differ, in its favour, by more than the parent's
// interquartile distance; a spread wider than the bound leaves the pair
// unresolved unless every change run beats every parent run; a median
// worse by more than the bound is a regression.
func judge(a, b []float64, lowerBetter bool, bound float64) verdict {
	v := verdict{medA: median(a), medB: median(b), spreadA: spread(a), spreadB: spread(b)}
	v.q1A, _, v.q3A = quartiles(a)
	v.q1B, _, v.q3B = quartiles(b)
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	if v.medA != 0 {
		v.worse = (v.medB - v.medA) / math.Abs(v.medA)
		if !lowerBetter {
			v.worse = -v.worse
		}
	}
	pairs, wins := 0, 0
	for i := 0; i < len(a) && i < len(b); i++ {
		pairs++
		if better(b[i], a[i]) {
			wins++
		}
	}
	if pairs > 0 {
		v.wins = float64(wins) / float64(pairs)
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	switch {
	case v.wins >= 0.9 && better(v.medB, v.medA) && math.Abs(v.medB-v.medA) > v.q3A-v.q1A:
		v.label = "gain"
	case math.Max(v.spreadA, v.spreadB) > bound && !allBetter:
		v.label = "unresolved"
	case v.worse > bound:
		v.label = "regression"
	default:
		v.label = "same"
	}
	return v
}

// runCompare prints one row per (workload, metric) and exits 1 on a
// regression or when the change fails a larger share of requests.
func runCompare(benchPath, dirA, dirB string, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 2
	}
	var def benchDef
	if err := json.Unmarshal(data, &def); err != nil {
		fmt.Fprintf(stderr, "e2e: %s: %v\n", benchPath, err)
		return 2
	}
	ra, err := loadRecords(dirA, 0)
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 2
	}
	rb, err := loadRecords(dirB, 0)
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 2
	}
	bad := false
	fmt.Fprintf(stdout, "%-13s %-17s %12s %25s %12s %25s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "quartiles A", "median B", "quartiles B", "spread A", "spread B", "worse", "wins", "verdict")
	for _, w := range workloads {
		a, b := ra[w.name], rb[w.name]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		for _, m := range def.EndToEnd {
			va, vb := values(a, m.Name), values(b, m.Name)
			v := judge(va, vb, m.Better == "lower", m.Bound)
			if v.label == "regression" {
				bad = true
			}
			fmt.Fprintf(stdout, "%-13s %-17s %12.5g %25s %12.5g %25s %8.4f %8.4f %8.4f %6.2f  %s\n",
				w.name, m.Name, v.medA, fmt.Sprintf("[%.5g, %.5g]", v.q1A, v.q3A),
				v.medB, fmt.Sprintf("[%.5g, %.5g]", v.q1B, v.q3B), v.spreadA, v.spreadB, v.worse, v.wins, v.label)
		}
		fa, fb := failedShare(a), failedShare(b)
		fmt.Fprintf(stdout, "%-13s %-17s %12.5g %12.5g\n", w.name, "failed_share", fa, fb)
		if fb > fa {
			bad = true
		}
	}
	if bad {
		return 1
	}
	return 0
}

func values(rs []record, name string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failedShare(rs []record) float64 {
	var failed, attempted float64
	for _, r := range rs {
		failed += float64(r.Failed)
		attempted += float64(r.Attempted)
	}
	if attempted == 0 {
		return 0
	}
	return failed / attempted
}
