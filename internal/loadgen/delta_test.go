package loadgen

import (
	"context"
	"testing"

	"repro/internal/server"
)

// TestDeltaPlanMaterializes pins the delta machinery itself: toggling
// Delta changes nothing about the base plan, ~half the requests carry
// a delta kind, and every delta request materializes into a valid,
// still-solvable mutation of its base instance.
func TestDeltaPlanMaterializes(t *testing.T) {
	cfg := smallCfg()
	base, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Delta = true
	plan, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var deltas int
	for i, r := range plan {
		b := base[i]
		if r.Family != b.Family || r.Jobs != b.Jobs || r.InstanceSeed != b.InstanceSeed || r.ArrivalMS != b.ArrivalMS {
			t.Fatalf("request %d: delta toggle changed the base plan: %+v vs %+v", i, r, b)
		}
		if r.DeltaKind == "" {
			continue
		}
		deltas++
		if r.DeltaKind == DeltaGrow && r.Family == FamilyGeneral {
			t.Fatalf("request %d: grow delta on a general-family instance", i)
		}
		in, err := r.materialize()
		if err != nil {
			t.Fatalf("request %d: materialize: %v", i, err)
		}
		bin, err := b.materialize()
		if err != nil {
			t.Fatal(err)
		}
		switch r.DeltaKind {
		case DeltaRaiseG:
			if in.G <= bin.G || in.N() != bin.N() {
				t.Fatalf("request %d: raise_g delta g=%d n=%d vs base g=%d n=%d", i, in.G, in.N(), bin.G, bin.N())
			}
		case DeltaGrow:
			if in.G != bin.G || in.N() <= bin.N() {
				t.Fatalf("request %d: grow delta g=%d n=%d vs base g=%d n=%d", i, in.G, in.N(), bin.G, bin.N())
			}
		}
		if err := in.Validate(); err != nil {
			t.Fatalf("request %d: delta instance invalid: %v", i, err)
		}
	}
	if deltas == 0 || deltas == len(plan) {
		t.Fatalf("delta plan has %d/%d delta requests, want a real mix", deltas, len(plan))
	}
}

// TestRunDeltaWarmStarts drives a delta plan against an in-process
// warm-enabled server: the hot pool bases get cached, and the
// near-miss variants must produce warm starts, counted per kind in
// the report.
func TestRunDeltaWarmStarts(t *testing.T) {
	cfg := smallCfg()
	cfg.Requests = 80
	cfg.DistinctInstances = 4
	cfg.Mix = []MixEntry{{FamilyLaminar, 1}}
	// Only comb retains warm state, and auto solves these small
	// laminar instances certificate-first, which is never
	// warm-eligible — pin comb so both warm kinds show up.
	cfg.Algorithm = "comb"
	cfg.Delta = true
	plan, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := Prepare(plan)
	if err != nil {
		t.Fatal(err)
	}
	client, srv := inProcessClient(t, server.Config{
		DefaultWorkers: 1,
		CacheEntries:   64,
		CacheWarmBytes: 8 << 20,
	})
	results, wall := RunClosed(context.Background(), client, prepared, 1)
	rep := BuildReport(results, wall, cfg.Model, "in-process", cfg.Seed, 1)
	if rep.Errors > 0 {
		t.Fatalf("delta run had %d errors: %+v", rep.Errors, rep.Counts)
	}
	if rep.WarmStarts == 0 {
		t.Fatal("delta run produced no warm starts")
	}
	if rep.WarmKinds["raise_g"] == 0 || rep.WarmKinds["superset"] == 0 {
		t.Fatalf("warm kinds not both exercised: %v", rep.WarmKinds)
	}
	// A cached repeat of a warm-solved entry also reports warm_start
	// (the response describes the solve behind the result), so only the
	// fresh solves reconcile against the server's warm counters.
	var freshRG, freshSS int64
	for _, r := range results {
		if r.WarmStart && !r.Cached {
			if r.WarmKind == "superset" {
				freshSS++
			} else {
				freshRG++
			}
		}
	}
	rg, ss := srv.Registry().WarmStarts()
	if rg != freshRG || ss != freshSS {
		t.Fatalf("fresh client warm counts (%d, %d) disagree with server counters (%d, %d)", freshRG, freshSS, rg, ss)
	}
}
