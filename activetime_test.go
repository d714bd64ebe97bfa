package activetime

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
)

func demoInstance(t *testing.T) *Instance {
	t.Helper()
	in, err := NewInstance(2, []Job{
		{Processing: 2, Release: 0, Deadline: 6},
		{Processing: 1, Release: 0, Deadline: 3},
		{Processing: 1, Release: 3, Deadline: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestSolveAllAlgorithms(t *testing.T) {
	in := demoInstance(t)
	opt, err := Optimal(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms() {
		res, err := Solve(in, alg)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if err := res.Schedule.Validate(in); err != nil {
			t.Fatalf("%s: invalid schedule: %v", alg, err)
		}
		if res.ActiveSlots < opt {
			t.Fatalf("%s: %d slots below OPT %d", alg, res.ActiveSlots, opt)
		}
		if alg == AlgAuto {
			// A small nested instance goes certificate-first; the result
			// names the solver behind its schedule, and carries the
			// routing evidence.
			if res.Route == nil {
				t.Fatal("auto: missing route decision")
			}
			if res.Route.Reason != RouteReasonCertificateFirst {
				t.Fatalf("auto: route reason %q, want %q", res.Route.Reason, RouteReasonCertificateFirst)
			}
			if res.Algorithm != AlgCombinatorial && res.Algorithm != AlgNested95 {
				t.Fatalf("auto: result labelled %s, want comb or nested95", res.Algorithm)
			}
		} else if res.Algorithm != alg {
			t.Fatalf("%s: result labelled %s", alg, res.Algorithm)
		}
	}
	res, err := Solve(in, AlgExact)
	if err != nil {
		t.Fatal(err)
	}
	if res.ActiveSlots != opt {
		t.Fatalf("exact returned %d, Optimal %d", res.ActiveSlots, opt)
	}
}

func TestNested95Certificate(t *testing.T) {
	in := demoInstance(t)
	res, err := Solve(in, AlgNested95)
	if err != nil {
		t.Fatal(err)
	}
	if res.LPLowerBound <= 0 {
		t.Fatal("LP bound missing")
	}
	if res.CertifiedRatio > ApproxRatio+1e-9 {
		t.Fatalf("certified ratio %g exceeds %g", res.CertifiedRatio, ApproxRatio)
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	in := demoInstance(t)
	if _, err := Solve(in, Algorithm("nope")); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
}

func TestFeasible(t *testing.T) {
	in := demoInstance(t)
	if !Feasible(in) {
		t.Fatal("demo instance is feasible")
	}
	bad, err := NewInstance(1, []Job{
		{Processing: 1, Release: 0, Deadline: 1},
		{Processing: 1, Release: 0, Deadline: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if Feasible(bad) {
		t.Fatal("over-packed instance is infeasible")
	}
	for _, alg := range Algorithms() {
		if _, err := Solve(bad, alg); err == nil {
			t.Fatalf("%s: expected error on infeasible instance", alg)
		}
	}
}

// TestCrossAlgorithmOrdering: exact ≤ nested95 ≤ 9/5·exact, and all
// algorithms produce feasible schedules, on random nested instances.
func TestCrossAlgorithmOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 40; trial++ {
		in := gen.RandomLaminar(rng, gen.DefaultLaminar(7, int64(1+rng.Intn(3))))
		opt, err := Optimal(in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, alg := range []Algorithm{AlgNested95, AlgGreedyMinimal, AlgGreedyRTL} {
			res, err := Solve(in, alg)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, alg, err)
			}
			if err := res.Schedule.Validate(in); err != nil {
				t.Fatalf("trial %d %s: %v", trial, alg, err)
			}
			bound := int64(3 * opt)
			if alg == AlgNested95 {
				bound = int64(ApproxRatio*float64(opt) + 1e-9)
			}
			if res.ActiveSlots > bound {
				t.Fatalf("trial %d %s: %d slots, OPT %d", trial, alg, res.ActiveSlots, opt)
			}
		}
	}
}
