package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/solvecache"
)

// warmTestServer builds a server with the cache and warm-start budget
// enabled (the plain testServer runs cache-off).
func warmTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s, ts, _ := testServerCfg(t, Config{
		DefaultWorkers: 2,
		CacheEntries:   64,
		CacheWarmBytes: 8 << 20,
		EventRing:      64,
	})
	return s, ts
}

// warmInstance renders the warm tests' base jobs at capacity g: two
// root windows, one with a nested child.
func warmInstance(g int64) string {
	return fmt.Sprintf(`{"g":%d,"jobs":[{"p":2,"r":0,"d":6},{"p":1,"r":1,"d":3},{"p":1,"r":8,"d":10}]}`, g)
}

func solveOK(t *testing.T, ts *httptest.Server, body string) SolveResponse {
	t.Helper()
	resp, data := postSolve(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out SolveResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decode: %v\n%s", err, data)
	}
	return out
}

func TestWarmStartRaiseG(t *testing.T) {
	t.Run("comb", func(t *testing.T) {
		s, ts := warmTestServer(t)
		base := solveOK(t, ts, `{"instance":`+warmInstance(2)+`,"algorithm":"comb"}`)
		if base.WarmStart {
			t.Fatal("cold base reported warm_start")
		}
		warm := solveOK(t, ts, `{"instance":`+warmInstance(4)+`,"algorithm":"comb","include_schedule":true}`)
		if !warm.WarmStart || warm.WarmKind != "raise_g" {
			t.Fatalf("raised-g solve not warm: %+v", warm)
		}
		if warm.ActiveSlots > base.ActiveSlots {
			t.Fatalf("warm %d > base %d active slots", warm.ActiveSlots, base.ActiveSlots)
		}
		if rg, ss := s.Registry().WarmStarts(); rg != 1 || ss != 0 {
			t.Fatalf("WarmStarts = (%d, %d), want (1, 0)", rg, ss)
		}
		if fb := s.Registry().WarmFallbacks(); fb != 0 {
			t.Fatalf("WarmFallbacks = %d, want 0", fb)
		}
		// The wide event carries the warm fields.
		page := s.Obs().Events(obs.EventFilter{})
		var sawWarm bool
		for _, ev := range page.Events {
			if ev.WarmStart && ev.WarmKind == "raise_g" && !ev.WarmFallback {
				sawWarm = true
			}
		}
		if !sawWarm {
			t.Fatalf("no warm wide event among %d events", page.Returned)
		}
	})
}

// TestNested95NearMissColdWithCertificate pins that the 9/5 pipeline
// never resumes: a raised-g near-miss of an explicit nested95 base
// solves cold and carries its strengthened-LP certificate.
func TestNested95NearMissColdWithCertificate(t *testing.T) {
	s, ts := warmTestServer(t)
	solveOK(t, ts, `{"instance":`+warmInstance(2)+`,"algorithm":"nested95"}`)
	near := solveOK(t, ts, `{"instance":`+warmInstance(4)+`,"algorithm":"nested95"}`)
	if near.WarmStart || near.WarmKind != "" || near.Cached {
		t.Fatalf("raised-g nested95 solve not cold: %+v", near)
	}
	if near.LPBound <= 0 || near.CertifiedRatio <= 0 {
		t.Fatalf("nested95 response lacks lp_bound/certified_ratio: %+v", near)
	}
	if rg, ss := s.Registry().WarmStarts(); rg != 0 || ss != 0 {
		t.Fatalf("WarmStarts = (%d, %d), want zeros", rg, ss)
	}
}

func TestWarmStartSuperset(t *testing.T) {
	s, ts := warmTestServer(t)
	solveOK(t, ts, `{"instance":`+warmInstance(2)+`,"algorithm":"comb"}`)
	// Same g, one extra job nested inside the [0,6) root window.
	grown := `{"g":2,"jobs":[{"p":2,"r":0,"d":6},{"p":1,"r":1,"d":3},{"p":1,"r":8,"d":10},{"p":1,"r":3,"d":6}]}`
	warm := solveOK(t, ts, `{"instance":`+grown+`,"algorithm":"comb"}`)
	if !warm.WarmStart || warm.WarmKind != "superset" {
		t.Fatalf("superset solve not warm: %+v", warm)
	}
	if rg, ss := s.Registry().WarmStarts(); rg != 0 || ss != 1 {
		t.Fatalf("WarmStarts = (%d, %d), want (0, 1)", rg, ss)
	}
}

// TestWarmExactHitStillHits pins that warm indexing does not break the
// exact-hit path: an identical repeat is a cache hit, not a re-solve.
func TestWarmExactHitStillHits(t *testing.T) {
	s, ts := warmTestServer(t)
	solveOK(t, ts, `{"instance":`+warmInstance(2)+`,"algorithm":"comb"}`)
	rep := solveOK(t, ts, `{"instance":`+warmInstance(2)+`,"algorithm":"comb"}`)
	if !rep.Cached {
		t.Fatalf("identical repeat not served from cache: %+v", rep)
	}
	if got := s.Registry().CacheHits(); got != 1 {
		t.Fatalf("CacheHits = %d, want 1", got)
	}
}

// TestWarmFallbackReplacesStaleState is the regression test for the
// fallback path: when retained warm state is corrupt, the near-miss
// must fall back to a cold solve exactly once — the stale state is
// stripped and the cold result (with fresh warm state) takes over, so
// a further near-miss warm-starts cleanly instead of falling back
// again.
func TestWarmFallbackReplacesStaleState(t *testing.T) {
	s, ts := warmTestServer(t)
	solveOK(t, ts, `{"instance":`+warmInstance(2)+`,"algorithm":"comb"}`)

	// Corrupt the retained state: an impossible acceptance bound makes
	// any resume exceed it and report ErrWarmMismatch.
	in, err := instance.ReadJSON(strings.NewReader(warmInstance(2)))
	if err != nil {
		t.Fatal(err)
	}
	structK := solvecache.StructKeyFor(in, "comb", false, false, false)
	keys := s.cache.Similar(structK)
	if len(keys) != 1 {
		t.Fatalf("Similar = %v, want one entry", keys)
	}
	out, ok := s.cache.Peek(keys[0])
	if !ok || out.warm.Load() == nil {
		t.Fatal("base entry retains no warm state")
	}
	bad := *out.warm.Load()
	bad.ActiveSlots = 0
	out.warm.Store(&bad)

	first := solveOK(t, ts, `{"instance":`+warmInstance(3)+`,"algorithm":"comb"}`)
	if first.WarmStart {
		t.Fatalf("corrupted state still warm-started: %+v", first)
	}
	if fb := s.Registry().WarmFallbacks(); fb != 1 {
		t.Fatalf("WarmFallbacks = %d, want 1", fb)
	}
	// The stale entry's warm state must be gone.
	if out.warm.Load() != nil {
		t.Fatal("stale warm state not stripped after fallback")
	}

	// A further near-miss resumes from the cold fallback's fresh state:
	// warm again, and no second fallback.
	second := solveOK(t, ts, `{"instance":`+warmInstance(5)+`,"algorithm":"comb"}`)
	if !second.WarmStart || second.WarmKind != "raise_g" {
		t.Fatalf("post-fallback near-miss not warm: %+v", second)
	}
	if fb := s.Registry().WarmFallbacks(); fb != 1 {
		t.Fatalf("WarmFallbacks = %d after recovery, want 1", fb)
	}
}

// TestWarmDisabledByZeroBudget pins that CacheWarmBytes ≤ 0 keeps the
// cache exact-hit-only: near-misses solve cold.
func TestWarmDisabledByZeroBudget(t *testing.T) {
	s, ts, _ := testServerCfg(t, Config{DefaultWorkers: 2, CacheEntries: 64})
	solveOK(t, ts, `{"instance":`+warmInstance(2)+`,"algorithm":"comb"}`)
	warm := solveOK(t, ts, `{"instance":`+warmInstance(4)+`,"algorithm":"comb"}`)
	if warm.WarmStart {
		t.Fatalf("warm start with zero budget: %+v", warm)
	}
	if rg, ss := s.Registry().WarmStarts(); rg != 0 || ss != 0 {
		t.Fatalf("WarmStarts = (%d, %d), want zeros", rg, ss)
	}
}

// TestWarmMetricsExposed pins the /metrics series the bench and smoke
// tooling scrape.
func TestWarmMetricsExposed(t *testing.T) {
	_, ts := warmTestServer(t)
	solveOK(t, ts, `{"instance":`+warmInstance(2)+`,"algorithm":"comb"}`)
	solveOK(t, ts, `{"instance":`+warmInstance(4)+`,"algorithm":"comb"}`)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	for _, want := range []string{
		`activetime_warm_starts_total{kind="raise_g"} 1`,
		`activetime_warm_starts_total{kind="superset"} 0`,
		"activetime_warm_fallbacks_total 0",
		"activetime_cache_entries 2",
		"activetime_cache_evictions_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if !strings.Contains(out, "activetime_cache_warm_bytes ") ||
		strings.Contains(out, "activetime_cache_warm_bytes 0\n") {
		t.Error("metrics missing a non-zero activetime_cache_warm_bytes gauge")
	}
}
