package service

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"raccd/client"
	"raccd/internal/report"
)

// timedSweep submits the Fig 2 sweep over HTTP, waits it to completion
// and returns the wall time of the whole submit/stream/fetch exchange.
func timedSweep(t *testing.T, c *client.Client, scale float64) time.Duration {
	t.Helper()
	systems := make([]string, 0, len(report.Systems))
	for _, mode := range report.Systems {
		systems = append(systems, mode.String())
	}
	ctx := context.Background()
	start := time.Now()
	st, err := c.SubmitSweep(ctx, client.SweepRequest{Ratios: []int{1}, Systems: systems, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.Wait(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != "done" {
		t.Fatalf("sweep %q: %s", fin.State, fin.Error)
	}
	if _, err := c.Result(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

// TestEmitFabricBench measures the distributed fabric against a single
// daemon on the Fig 2 sweep and writes BENCH_fabric.json when
// BENCH_FABRIC_OUT is set:
//
//	BENCH_FABRIC_OUT=$PWD/BENCH_fabric.json go test ./internal/service -run TestEmitFabricBench -v
//
// BENCH_FABRIC_SCALE (default 1.0) sizes the problems. Four phases are
// timed, all over HTTP end to end: the cold and warm sweep on one plain
// daemon, then the cold and warm sweep on a coordinator scattering runs
// across two local worker daemons. The gated ratios are the fabric's
// overhead relative to the single daemon — cold is dominated by
// simulation so the fan-out should be near free; warm pays one HTTP
// round-trip per run instead of an in-process cache recall, which is the
// price of global dedupe.
func TestEmitFabricBench(t *testing.T) {
	out := os.Getenv("BENCH_FABRIC_OUT")
	if out == "" {
		t.Skip("set BENCH_FABRIC_OUT=<path> to run the fabric benchmark")
	}
	scale := 1.0
	if s := os.Getenv("BENCH_FABRIC_SCALE"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("BENCH_FABRIC_SCALE: %v", err)
		}
		scale = v
	}
	runs := fig2Matrix(scale, nil).NumRuns()

	_, single := newTestServer(t, Options{})
	singleCold := timedSweep(t, single, scale)
	singleWarm := timedSweep(t, single, scale)

	fabric, workers, _ := startFabric(t, 2, Options{})
	fabricCold := timedSweep(t, fabric, scale)
	fabricWarm := timedSweep(t, fabric, scale)
	for i, w := range workers {
		if w.Stats().RunsCompleted == 0 {
			t.Fatalf("worker %d ran nothing — the partition was degenerate", i)
		}
	}

	coldSlowdown := float64(fabricCold) / float64(singleCold)
	warmSlowdown := float64(fabricWarm) / float64(singleWarm)
	doc := map[string]any{
		"description": fmt.Sprintf(
			"Distributed-fabric overhead on the paper's Fig 2 sweep (%d runs, scale %g), everything over HTTP end to end via httptest. single_* = one plain daemon simulating in-process; fabric_* = a coordinator daemon scattering the same sweep across two local worker daemons by rendezvous hash. cold = every run simulated; warm = every run recalled from the workers' stores. Regenerate with BENCH_FABRIC_OUT=$PWD/BENCH_fabric.json go test ./internal/service -run TestEmitFabricBench.",
			runs, scale),
		"date":    time.Now().Format("2006-01-02"),
		"machine": fmt.Sprintf("%s/%s, %d CPU, %s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version()),
		"headline": map[string]any{
			"runs":                           runs,
			"single_cold_ns":                 singleCold.Nanoseconds(),
			"single_warm_ns":                 singleWarm.Nanoseconds(),
			"fabric_cold_ns":                 fabricCold.Nanoseconds(),
			"fabric_warm_ns":                 fabricWarm.Nanoseconds(),
			"slowdown_fabric_cold_vs_single": coldSlowdown,
			"slowdown_fabric_warm_vs_single": warmSlowdown,
		},
		"notes": []string{
			"Distributed output equivalence is pinned by TestCoordinatorBatchMatchesGolden and TestCoordinatorSweepMatchesGolden (byte-identical to the seed golden CSV).",
			"Both slowdowns share one host, so the two workers add no CPUs: cold measures pure fan-out overhead, warm measures per-run HTTP round-trips against in-process cache recall.",
			"The warm ratio is the cost of cross-node dedupe; it is gated loosely (CI passes -tolerance 0.5) because it is a ratio of two fast, jittery measurements.",
		},
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("single cold %v warm %v; fabric cold %v (%.2fx) warm %v (%.2fx) -> %s",
		singleCold, singleWarm, fabricCold, coldSlowdown, fabricWarm, warmSlowdown, out)
}
