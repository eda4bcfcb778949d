package report

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
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

// TestRewrittenTraceIsNotStoredUnderOldKey: a trace run is keyed by the
// file's content when it is submitted, and the file may be rewritten
// before the run reads it. The run must then fail, naming the trace,
// rather than store the new content's Result under the old content's
// key.
func TestRewrittenTraceIsNotStoredUnderOldKey(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.rtf")
	name := "trace:" + path
	record := func(bench string) {
		t.Helper()
		tr, err := tracefile.Record(workloads.MustGet(bench, 0.05), tracefile.Fingerprint(bench))
		if err != nil {
			t.Fatal(err)
		}
		if err := tracefile.WriteFile(path, tr); err != nil {
			t.Fatal(err)
		}
	}
	record("Jacobi")
	jacobi, err := workloads.Identity(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	record("MD5")
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(coherence.RaCCD, 1)
	key := resultstore.KeyOf(cfg.Fingerprint(), jacobi)
	res, _, _, _, err := Simulate(context.Background(), store, key, name, 1, cfg)
	if err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("run keyed by the Jacobi trace over MD5's bytes: result %s, error %v; want an error naming %s", res.Workload, err, path)
	}
	if got, ok := store.Get(key); ok {
		t.Fatalf("the store answers the Jacobi trace's key with a %s result", got.Workload)
	}
	// Keyed by the content it now holds, the same file runs and is stored.
	md5, err := workloads.Identity(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	key = resultstore.KeyOf(cfg.Fingerprint(), md5)
	if res, _, _, _, err = Simulate(context.Background(), store, key, name, 1, cfg); err != nil || res.Workload != "MD5" {
		t.Fatalf("run keyed by the MD5 trace: result %q, error %v", res.Workload, err)
	}
	if got, ok := store.Get(key); !ok || got != res {
		t.Fatalf("store holds %+v (hit %v) under the MD5 trace's key, want %+v", got, ok, res)
	}
}
