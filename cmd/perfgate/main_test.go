package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// write drops a minimal BENCH record with the given headline fields.
func write(t *testing.T, name string, headline map[string]float64) string {
	t.Helper()
	doc := map[string]any{
		"machine":  "test/1cpu",
		"date":     "2026-01-01",
		"headline": headline,
		"notes":    []string{"fixture"},
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// gate runs perfgate and returns its exit code and combined output. The
// step-summary env var is cleared so tests running under GitHub Actions
// don't append fixture tables to the real job summary.
func gate(t *testing.T, args ...string) (int, string) {
	t.Helper()
	t.Setenv("GITHUB_STEP_SUMMARY", "")
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String() + errOut.String()
}

func TestGatePasses(t *testing.T) {
	ref := write(t, "ref.json", map[string]float64{
		"speedup_4_vs_1": 0.95, "slowdown_64_vs_16": 1.58, "seq_runs_per_s": 37,
	})
	// Within tolerance: speedup down 10%, slowdown up 10%, absolute
	// throughput halved (not gated).
	cur := write(t, "new.json", map[string]float64{
		"speedup_4_vs_1": 0.855, "slowdown_64_vs_16": 1.738, "seq_runs_per_s": 18,
	})
	code, out := gate(t, "-ref", ref, "-new", cur)
	if code != 0 {
		t.Fatalf("gate failed (code %d):\n%s", code, out)
	}
	if !strings.Contains(out, "2 ratios within 15%") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestGateImprovementPasses(t *testing.T) {
	// Better in both directions must never fail: a multi-core CI host
	// beating a single-CPU reference speedup is progress, not drift.
	ref := write(t, "ref.json", map[string]float64{
		"speedup_4_vs_1": 0.95, "slowdown_64_vs_16": 1.58,
	})
	cur := write(t, "new.json", map[string]float64{
		"speedup_4_vs_1": 2.8, "slowdown_64_vs_16": 1.30,
	})
	if code, out := gate(t, "-ref", ref, "-new", cur); code != 0 {
		t.Fatalf("improvement gated as regression (code %d):\n%s", code, out)
	}
}

func TestGateFailsOnSpeedupRegression(t *testing.T) {
	ref := write(t, "ref.json", map[string]float64{"speedup_4_vs_1": 1.0})
	cur := write(t, "new.json", map[string]float64{"speedup_4_vs_1": 0.80})
	code, out := gate(t, "-ref", ref, "-new", cur)
	if code != 1 {
		t.Fatalf("20%% speedup regression passed (code %d):\n%s", code, out)
	}
	if !strings.Contains(out, "REGRESSED") {
		t.Fatalf("missing REGRESSED verdict:\n%s", out)
	}
}

func TestGateFailsOnSlowdownRegression(t *testing.T) {
	ref := write(t, "ref.json", map[string]float64{"slowdown_64_vs_16": 1.5})
	cur := write(t, "new.json", map[string]float64{"slowdown_64_vs_16": 1.8})
	if code, out := gate(t, "-ref", ref, "-new", cur); code != 1 {
		t.Fatalf("20%% slowdown regression passed (code %d):\n%s", code, out)
	}
}

func TestGateTolerance(t *testing.T) {
	ref := write(t, "ref.json", map[string]float64{"speedup_4_vs_1": 1.0})
	cur := write(t, "new.json", map[string]float64{"speedup_4_vs_1": 0.80})
	if code, out := gate(t, "-ref", ref, "-new", cur, "-tolerance", "0.25"); code != 0 {
		t.Fatalf("regression within widened tolerance failed (code %d):\n%s", code, out)
	}
}

func TestGateMissingKeyFails(t *testing.T) {
	// A ratio that vanished from the regenerated record must fail loudly,
	// not silently ungate.
	ref := write(t, "ref.json", map[string]float64{"speedup_4_vs_1": 1.0})
	cur := write(t, "new.json", map[string]float64{"speedup_8_vs_1": 1.0})
	code, out := gate(t, "-ref", ref, "-new", cur)
	if code != 1 {
		t.Fatalf("missing gated key passed (code %d):\n%s", code, out)
	}
	if !strings.Contains(out, "missing from new record") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestGateExplicitKeys(t *testing.T) {
	ref := write(t, "ref.json", map[string]float64{
		"speedup_4_vs_1": 1.0, "speedup_8_vs_1": 1.0,
	})
	cur := write(t, "new.json", map[string]float64{
		"speedup_4_vs_1": 1.0, "speedup_8_vs_1": 0.5,
	})
	// Gating only the healthy key passes; the default gate catches the bad one.
	if code, out := gate(t, "-ref", ref, "-new", cur, "-keys", "speedup_4_vs_1"); code != 0 {
		t.Fatalf("explicit healthy key failed (code %d):\n%s", code, out)
	}
	if code, _ := gate(t, "-ref", ref, "-new", cur); code != 1 {
		t.Fatal("default key set missed the regressed ratio")
	}
}

func TestGateNoRatiosErrors(t *testing.T) {
	ref := write(t, "ref.json", map[string]float64{"seq_runs_per_s": 37})
	cur := write(t, "new.json", map[string]float64{"seq_runs_per_s": 37})
	if code, _ := gate(t, "-ref", ref, "-new", cur); code != 2 {
		t.Fatal("reference without ratio fields should be a usage error")
	}
}

// TestGateStepSummary pins the GitHub job-summary table: one markdown
// table per invocation, appended (several gate steps share the file),
// with per-ratio verdicts.
func TestGateStepSummary(t *testing.T) {
	ref := write(t, "ref.json", map[string]float64{
		"speedup_4_vs_1": 1.0, "slowdown_64_vs_16": 1.5,
	})
	cur := write(t, "new.json", map[string]float64{
		"speedup_4_vs_1": 0.5, "slowdown_64_vs_16": 1.5,
	})
	summary := filepath.Join(t.TempDir(), "summary.md")
	t.Setenv("GITHUB_STEP_SUMMARY", summary)
	var out, errOut bytes.Buffer
	if code := run([]string{"-ref", ref, "-new", cur}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1:\n%s%s", code, out.String(), errOut.String())
	}
	data, err := os.ReadFile(summary)
	if err != nil {
		t.Fatalf("no step summary written: %v", err)
	}
	for _, want := range []string{
		"### perfgate:",
		"| ratio | reference | new | regression | verdict |",
		"| `speedup_4_vs_1` | 1.0000 | 0.5000 | +50.0% | ❌ REGRESSED |",
		"| `slowdown_64_vs_16` | 1.5000 | 1.5000 | +0.0% | ✅ ok |",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("summary missing %q:\n%s", want, data)
		}
	}
	// A second gate step appends rather than truncates.
	if code := run([]string{"-ref", ref, "-new", ref}, &out, &errOut); code != 0 {
		t.Fatalf("self-comparison exit %d", code)
	}
	data, err = os.ReadFile(summary)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(data), "### perfgate:"); got != 2 {
		t.Errorf("summary has %d tables after two invocations, want 2:\n%s", got, data)
	}
}

// TestGateRealRecord gates the checked-in BENCH_machine.json against
// itself — the exact invocation CI uses must accept an unchanged record.
func TestGateRealRecord(t *testing.T) {
	ref := "../../BENCH_machine.json"
	if _, err := os.Stat(ref); err != nil {
		t.Skip("BENCH_machine.json not present")
	}
	if code, out := gate(t, "-ref", ref, "-new", ref); code != 0 {
		t.Fatalf("self-comparison failed (code %d):\n%s", code, out)
	}
}
