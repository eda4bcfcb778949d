package report

import (
	"os"
	"testing"

	"raccd/internal/resultstore"
)

// TestCachedSweepMatchesGolden pins the end-to-end cache equivalence: a
// cold cached sweep (every run simulated and stored) and a warm cached
// sweep (every run recalled from disk) both reproduce the seed golden CSV
// byte-identically.
func TestCachedSweepMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/golden_small_sweep.csv")
	if err != nil {
		t.Fatal(err)
	}
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	runOnce := func(label string) {
		m := smallMatrix()
		m.Cache = store
		set, err := m.Run()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got := set.CSV(); got != string(want) {
			t.Fatalf("%s cached sweep CSV diverged from the seed golden", label)
		}
	}

	runOnce("cold")
	cold := store.Stats()
	if cold.Misses == 0 || cold.Hits+cold.Coalesced != 0 {
		t.Fatalf("cold sweep stats = %+v, want all misses", cold)
	}

	runOnce("warm")
	warm := store.Stats()
	if warm.Misses != cold.Misses {
		t.Fatalf("warm sweep simulated: misses %d -> %d", cold.Misses, warm.Misses)
	}
	if warm.Hits != cold.Misses {
		t.Fatalf("warm sweep hits = %d, want %d (every run recalled)", warm.Hits, cold.Misses)
	}
}
