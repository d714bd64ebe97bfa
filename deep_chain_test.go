package activetime

import (
	"runtime"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/flowfeas"
	"repro/internal/gen"
)

// TestDeepChain900Regression is the repro for the depth⁴ LP memory
// blow-up: a 900-deep nested chain used to OOM the process when it hit
// the default (LP) algorithm, because the strengthened LP carries a
// y-variable and coupling row per (window, contained job) pair —
// ~405k pairs here — and the dense tableau is pairs² cells. The auto
// route goes certificate-first: comb meets the tree bound on the chain,
// so the LP never runs, and the solve finishes in memory linear in the
// instance.
func TestDeepChain900Regression(t *testing.T) {
	in, err := LoadInstance("testdata/deep_chain_900.json")
	if err != nil {
		t.Fatal(err)
	}
	if n := in.N(); n != 900 {
		t.Fatalf("testdata instance has %d jobs, want 900", n)
	}

	// The committed instance must still be the shape that triggered the
	// bug: the LP path's estimated tableau is terabytes.
	est := costmodel.EstimateLP(in)
	if est.TableauBytes < int64(1)<<40 {
		t.Fatalf("LP tableau estimate = %d bytes; the repro shape requires ≥ 1 TiB", est.TableauBytes)
	}

	// Route and solve under an allocation budget: the combinatorial
	// path needs a few MB; blowing 64 MiB means the LP (or something
	// equally quadratic) snuck back onto this path.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Solve(in, AlgAuto)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if allocated := after.TotalAlloc - before.TotalAlloc; allocated > 64<<20 {
		t.Errorf("solve allocated %d bytes, budget 64 MiB", allocated)
	}

	if res.Route == nil || res.Route.Reason != RouteReasonCertificateFirst {
		t.Fatalf("auto route = %+v, want certificate-first", res.Route)
	}
	if res.Algorithm != AlgCombinatorial {
		t.Fatalf("result algorithm = %q", res.Algorithm)
	}
	// 900 unit jobs at g=2: the volume bound of 450 slots is achieved,
	// and the certificate says so.
	if res.ActiveSlots != 450 || res.LowerBound != res.ActiveSlots {
		t.Fatalf("active slots = %d, lower bound = %d, want both 450", res.ActiveSlots, res.LowerBound)
	}
	if err := res.Schedule.Validate(in); err != nil {
		t.Fatalf("invalid schedule: %v", err)
	}
	if !flowfeas.CheckSlots(in, res.Schedule.ActiveSlots()) {
		t.Fatal("schedule's active slots fail the flow feasibility check")
	}
}

// TestDeepChainTruncatedMatchesExact checks solution quality where
// ground truth is tractable: truncated-depth variants of the same
// chain family must solve to the exact optimum through the auto route.
func TestDeepChainTruncatedMatchesExact(t *testing.T) {
	for _, depth := range []int{2, 4, 8, 12} {
		in := gen.NestedChain(depth, 2, 1)
		res, err := Solve(in, AlgAuto)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		opt, err := Optimal(in)
		if err != nil {
			t.Fatalf("depth %d: exact: %v", depth, err)
		}
		if res.ActiveSlots != opt {
			t.Errorf("depth %d: auto=%d exact=%d (via %s)", depth, res.ActiveSlots, opt, res.Algorithm)
		}
		if err := res.Schedule.Validate(in); err != nil {
			t.Errorf("depth %d: invalid schedule: %v", depth, err)
		}
	}
}
