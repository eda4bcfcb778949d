package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runSweep(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw strings.Builder
	code = run(context.Background(), args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestUnknownFigureRejectedUpFront(t *testing.T) {
	// Must fail fast with usage, not after running the whole sweep —
	// use full scale so a regression that runs the sweep first would
	// hang rather than silently pass.
	code, _, stderr := runSweep(t, "-fig", "99")
	if code == 0 {
		t.Fatal("unknown -fig exited 0")
	}
	if !strings.Contains(stderr, `unknown figure "99"`) {
		t.Errorf("stderr missing diagnostic: %q", stderr)
	}
	if !strings.Contains(stderr, "Usage") && !strings.Contains(stderr, "-fig") {
		t.Errorf("stderr missing usage message: %q", stderr)
	}
}

func TestUnknownTableRejected(t *testing.T) {
	code, _, stderr := runSweep(t, "-table", "9")
	if code == 0 {
		t.Fatal("unknown -table exited 0")
	}
	if !strings.Contains(stderr, `unknown table "9"`) {
		t.Errorf("stderr missing diagnostic: %q", stderr)
	}
}

func TestUnknownFlagRejected(t *testing.T) {
	code, _, _ := runSweep(t, "-no-such-flag")
	if code == 0 {
		t.Fatal("unknown flag exited 0")
	}
	// The execution-engine knobs are gone: one execution path, no flag.
	for _, flag := range []string{"-engine", "-shards"} {
		if code, _, _ := runSweep(t, flag, "1", "-table", "2"); code != 2 {
			t.Errorf("%s: exit %d, want 2 (unknown flag)", flag, code)
		}
	}
}

func TestStaticTables(t *testing.T) {
	for tbl, want := range map[string]string{"1": "", "2": "", "3": "directory"} {
		code, stdout, _ := runSweep(t, "-table", tbl)
		if code != 0 {
			t.Fatalf("-table %s exited %d", tbl, code)
		}
		if stdout == "" {
			t.Fatalf("-table %s printed nothing", tbl)
		}
		if want != "" && !strings.Contains(strings.ToLower(stdout), want) {
			t.Errorf("-table %s output missing %q", tbl, want)
		}
	}
}

// A tiny real sweep through the CLI: figure 2 only needs 1:1 non-ADR
// runs, and -scale keeps it fast.
func TestFig2EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	csv := filepath.Join(t.TempDir(), "out.csv")
	code, stdout, stderr := runSweep(t, "-fig", "2", "-scale", "0.05", "-q", "-jobs", "2", "-csv", csv)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "Fig 2") {
		t.Errorf("missing figure header in output")
	}
}

// A cancelled context aborts the sweep with a non-zero exit.
func TestCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errw strings.Builder
	if code := run(ctx, []string{"-scale", "0.05", "-q"}, &out, &errw); code == 0 {
		t.Fatal("cancelled sweep exited 0")
	}
}

// Synthetic workloads and trace files join the matrix via -synth/-trace;
// -only-extra replaces the paper set.
func TestSynthAndTraceInMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	csv := filepath.Join(t.TempDir(), "out.csv")
	code, stdout, stderr := runSweep(t,
		"-fig", "2", "-only-extra", "-synth", "chain/width=2/depth=4,readonly/width=2/depth=2/shared=16",
		"-q", "-jobs", "2", "-csv", csv)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"synth:chain/width=2/depth=4", "synth:readonly"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("figure output missing %q:\n%s", want, stdout)
		}
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "synth:chain/width=2/depth=4,RaCCD") {
		t.Errorf("CSV missing synthetic rows:\n%s", data)
	}
}

// TestCacheColdAndWarmIdentical pins the -cache contract at the CLI
// level: an uncached sweep, a cold cached sweep (all simulated + stored)
// and a warm cached sweep (all recalled) emit byte-identical figures and
// CSV, and the warm run simulates nothing.
func TestCacheColdAndWarmIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	args := func(csv string, cached bool) []string {
		a := []string{"-fig", "2", "-only-extra",
			"-synth", "chain/width=2/depth=4,forkjoin/width=2/depth=3",
			"-q", "-jobs", "2", "-csv", csv}
		if cached {
			a = append(a, "-cache", cacheDir)
		}
		return a
	}
	readCSV := func(path string) string {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	plainCSV := filepath.Join(dir, "plain.csv")
	code, plainOut, stderr := runSweep(t, args(plainCSV, false)...)
	if code != 0 {
		t.Fatalf("uncached: exit %d, stderr: %s", code, stderr)
	}

	coldCSV := filepath.Join(dir, "cold.csv")
	code, coldOut, stderr := runSweep(t, args(coldCSV, true)...)
	if code != 0 {
		t.Fatalf("cold: exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "0 hits") || !strings.Contains(stderr, "6 simulated") {
		t.Errorf("cold cache summary wrong: %q", stderr)
	}

	warmCSV := filepath.Join(dir, "warm.csv")
	code, warmOut, stderr := runSweep(t, args(warmCSV, true)...)
	if code != 0 {
		t.Fatalf("warm: exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "6 hits") || !strings.Contains(stderr, "0 simulated") {
		t.Errorf("warm run simulated: %q", stderr)
	}

	if coldOut != plainOut || warmOut != plainOut {
		t.Error("figure output differs between uncached, cold and warm runs")
	}
	plain := readCSV(plainCSV)
	if readCSV(coldCSV) != plain || readCSV(warmCSV) != plain {
		t.Error("CSV differs between uncached, cold and warm runs")
	}
}

func TestCacheBadDirRejected(t *testing.T) {
	// A cache root that exists as a FILE cannot be opened as a store;
	// the sweep must fail fast, before simulating anything.
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runSweep(t, "-cache", file, "-fig", "2", "-q")
	if code != 2 || !strings.Contains(stderr, "sweep:") {
		t.Fatalf("bad cache dir: exit %d, stderr %q", code, stderr)
	}
}

func TestOnlyExtraRequiresExtras(t *testing.T) {
	code, _, stderr := runSweep(t, "-only-extra")
	if code != 2 || !strings.Contains(stderr, "-only-extra") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}
