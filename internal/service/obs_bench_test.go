package service

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"raccd/internal/obs"
)

// TestEmitObsBench measures the observability layer's overhead on the
// Fig 2 sweep and writes BENCH_obs.json when BENCH_OBS_OUT is set:
//
//	BENCH_OBS_OUT=$PWD/BENCH_obs.json go test ./internal/service -run TestEmitObsBench -v
//
// BENCH_OBS_SCALE (default 1.0) sizes the problems. Two daemon
// configurations serve the same sweep over HTTP, cold (every run
// simulated) and warm (every run recalled): one with the default
// discard logger, one logging at debug level — the most expensive
// setting, one JSON line per executed run plus one per HTTP request —
// into io.Discard. Trace propagation and phase timing are
// unconditionally on in both, so the gated ratios bound the worst-case
// cost of turning full logging on, on top of a baseline that already
// carries the rest of the layer. Each configuration is measured
// best-of-3 on fresh daemons, interleaved, minima reported.
func TestEmitObsBench(t *testing.T) {
	out := os.Getenv("BENCH_OBS_OUT")
	if out == "" {
		t.Skip("set BENCH_OBS_OUT=<path> to run the observability benchmark")
	}
	scale := 1.0
	if s := os.Getenv("BENCH_OBS_SCALE"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("BENCH_OBS_SCALE: %v", err)
		}
		scale = v
	}
	runs := fig2Matrix(scale, nil).NumRuns()

	// Untimed warmup on a throwaway daemon: brings the host to steady
	// state (page cache, CPU clocks) so measurement order doesn't bias
	// the plain-vs-logged comparison.
	_, warmup := newTestServer(t, Options{})
	timedSweep(t, warmup, scale)

	// Best-of-N with the two configurations interleaved: each iteration
	// boots a fresh daemon per config (a cold sweep needs an empty
	// store), and the minimum is the noise-robust estimate.
	const iters = 3
	measure := func(opts Options) (cold, warm time.Duration) {
		_, c := newTestServer(t, opts)
		cold = timedSweep(t, c, scale)
		// Warm sweeps are milliseconds; take the best of several.
		warm = timedSweep(t, c, scale)
		for i := 1; i < 5; i++ {
			if w := timedSweep(t, c, scale); w < warm {
				warm = w
			}
		}
		return cold, warm
	}
	var plainCold, plainWarm, loggedCold, loggedWarm time.Duration
	for i := 0; i < iters; i++ {
		pc, pw := measure(Options{})
		lc, lw := measure(Options{
			Logger: obs.NewLogger(io.Discard, slog.LevelDebug),
		})
		if i == 0 || pc < plainCold {
			plainCold = pc
		}
		if i == 0 || pw < plainWarm {
			plainWarm = pw
		}
		if i == 0 || lc < loggedCold {
			loggedCold = lc
		}
		if i == 0 || lw < loggedWarm {
			loggedWarm = lw
		}
	}

	coldSlowdown := float64(loggedCold) / float64(plainCold)
	warmSlowdown := float64(loggedWarm) / float64(plainWarm)
	doc := map[string]any{
		"description": fmt.Sprintf(
			"Observability overhead on the paper's Fig 2 sweep (%d runs, scale %g), served over HTTP end to end via httptest. plain_* = the default discard logger; logged_* = debug-level JSON logging (one line per executed run and per HTTP request) into io.Discard. Trace propagation and per-job phase timing are active in both daemons, so the slowdowns bound the cost of full logging on top of the always-on layer. cold = every run simulated; warm = every run recalled from the store. Regenerate with BENCH_OBS_OUT=$PWD/BENCH_obs.json go test ./internal/service -run TestEmitObsBench.",
			runs, scale),
		"date":    time.Now().Format("2006-01-02"),
		"machine": fmt.Sprintf("%s/%s, %d CPU, %s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version()),
		"headline": map[string]any{
			"runs":                       runs,
			"plain_cold_ns":              plainCold.Nanoseconds(),
			"plain_warm_ns":              plainWarm.Nanoseconds(),
			"logged_cold_ns":             loggedCold.Nanoseconds(),
			"logged_warm_ns":             loggedWarm.Nanoseconds(),
			"slowdown_obs_cold_vs_plain": coldSlowdown,
			"slowdown_obs_warm_vs_plain": warmSlowdown,
		},
		"notes": []string{
			"The acceptance bar is <2% overhead on the cold (simulation-bound) sweep; the checked-in record pins it.",
			"The warm ratio divides two fast HTTP-bound measurements and jitters accordingly; CI gates this record with a loose tolerance for that reason.",
			"Output equivalence with logging active is pinned by the service tests (golden sweep CSV byte-identical either way).",
		},
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("plain cold %v warm %v; logged cold %v (%.3fx) warm %v (%.3fx) -> %s",
		plainCold, plainWarm, loggedCold, coldSlowdown, loggedWarm, warmSlowdown, out)
}
