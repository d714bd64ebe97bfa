package costmodel

import "testing"

func TestWarmFactor(t *testing.T) {
	if f := WarmFactor(WarmKindRaiseG); f <= 0 || f >= 1 {
		t.Fatalf("raise_g factor = %g, want a discount", f)
	}
	if f := WarmFactor(WarmKindSuperset); f <= WarmFactor(WarmKindRaiseG) || f >= 1 {
		t.Fatalf("superset factor = %g, want between raise_g and cold", f)
	}
	if f := WarmFactor(""); f != 1 {
		t.Fatalf("unknown kind factor = %g, want 1 (cold)", f)
	}
}

func TestPredictWarmNS(t *testing.T) {
	m := Default()
	cold := m.PredictAlgNS(FamilyLaminar, "nested95", 1000, 8)
	warm := m.PredictWarmNS(FamilyLaminar, "nested95", WarmKindRaiseG, 1000, 8)
	if warm >= cold {
		t.Fatalf("warm prediction %d not cheaper than cold %d", warm, cold)
	}
	if warm < 1 {
		t.Fatalf("warm prediction %d below floor", warm)
	}
	// Unknown kind predicts cold.
	if got := m.PredictWarmNS(FamilyLaminar, "nested95", "", 1000, 8); got != cold {
		t.Fatalf("unknown kind predicted %d, want cold %d", got, cold)
	}
	// Monotone in jobs, as the scheduler requires.
	small := m.PredictWarmNS(FamilyLaminar, "comb", WarmKindSuperset, 100, 4)
	big := m.PredictWarmNS(FamilyLaminar, "comb", WarmKindSuperset, 100000, 4)
	if big < small {
		t.Fatalf("warm prediction not monotone: %d jobs→%d, %d jobs→%d", 100, small, 100000, big)
	}
}
