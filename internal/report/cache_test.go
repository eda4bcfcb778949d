package report

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"raccd/internal/coherence"
	"raccd/internal/resultstore"
	"raccd/internal/sim"
	"raccd/internal/tracefile"
	"raccd/internal/workloads"
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

// TestWarmMatrixReadsTraceOnce: the cells of a cached sweep over a trace
// share one workload identity, resolved once per sweep, so a warm 23-cell
// matrix over a 750 KB trace reads, parses and hashes the file once
// instead of once per cell, and allocates under twice the file's size.
// The NCRT sweep over the same trace resolves it once too.
func TestWarmMatrixReadsTraceOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jacobi.rtf")
	tr, err := tracefile.Record(workloads.MustGet("Jacobi", 4), tracefile.Fingerprint("Jacobi@4"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tracefile.WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultMatrix()
	m.Workloads = []string{"trace:" + path}
	m.Cache = store
	keys := m.Keys()
	if len(keys) != 23 {
		t.Fatalf("default matrix over one trace has %d cells, want 23", len(keys))
	}
	// Warm the store without simulating: a stand-in result under the key
	// of every cell of both sweeps.
	id, err := workloads.Identity(m.Workloads[0], m.Scale)
	if err != nil {
		t.Fatal(err)
	}
	put := func(k sim.Knobs, res sim.Result) {
		if err := store.Put(resultstore.KeyOf(k.Resolve().Fingerprint(), id), res); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		put(m.knobs(k), sim.Result{Workload: "Jacobi", System: k.System, DirRatio: k.Ratio, ADR: k.ADR})
	}
	for _, lat := range NCRTLatencies {
		k := m.knobs(Key{Workload: m.Workloads[0], System: coherence.RaCCD, Ratio: 1})
		k.NCRTLatency = lat
		put(k, sim.Result{Workload: "Jacobi", System: coherence.RaCCD, DirRatio: 1, Cycles: lat})
	}

	allocated := func(run func() error) uint64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := run()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	matrix := allocated(func() error { _, err := m.Run(); return err })
	ncrt := allocated(func() error { _, err := m.RunNCRTSweep(); return err })
	t.Logf("warm matrix allocated %d B, NCRT sweep %d B, over a %d B trace", matrix, ncrt, info.Size())
	if st := store.Stats(); st.Hits != uint64(len(keys)+len(NCRTLatencies)) || st.Misses != 0 {
		t.Fatalf("store stats %+v, want every cell a hit", st)
	}
	for name, alloc := range map[string]uint64{"matrix": matrix, "NCRT sweep": ncrt} {
		if alloc > 2*uint64(info.Size()) {
			t.Errorf("warm %s allocated %d B over a %d B trace, want under 2× the file", name, alloc, info.Size())
		}
	}
}
