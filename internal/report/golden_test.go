package report

import (
	"os"
	"testing"

	"raccd/internal/coherence"
)

// TestSweepMatchesSeedGolden pins the simulator's observable behaviour: the
// sweep CSV over a small matrix must stay byte-identical to
// testdata/golden_small_sweep.csv, which was generated by the seed (pre-
// optimization, map-based) simulator. This is the guard that the flattened
// hot path — the paged block store, the array TLB, the paged page table and
// classifier — is a pure performance change.
//
// If a PR intentionally changes simulation results (a modelling fix, not an
// optimization), regenerate the golden file with:
//
//	UPDATE_GOLDEN=1 go test ./internal/report -run TestSweepMatchesSeedGolden
//
// and explain the change in the commit message.
var updateGolden = os.Getenv("UPDATE_GOLDEN") != ""

func TestSweepMatchesSeedGolden(t *testing.T) {
	checkGolden(t, smallMatrix(), "testdata/golden_small_sweep.csv")
}

// TestPTROSweepMatchesGolden pins PT-RO's numbers, which the seed golden
// does not cover: MD5, Jacobi and KNN (whose training set is the shared
// read-only data PT-RO exists for) under PT-RO at 1:1, 1:16 and 1:1+ADR.
// PT and PT-RO share the classifier and the flip flush, so a change to
// either shows here as well as in the seed golden's PT rows. Regenerate
// it only for an intentional modelling change:
//
//	UPDATE_GOLDEN=1 go test ./internal/report -run TestPTROSweepMatchesGolden
func TestPTROSweepMatchesGolden(t *testing.T) {
	m := smallMatrix()
	m.Workloads = []string{"MD5", "Jacobi", "KNN"}
	m.Systems = []coherence.Mode{coherence.PTRO}
	checkGolden(t, m, "testdata/golden_ptro_sweep.csv")
}

// checkGolden runs m sequentially and compares its CSV with the golden
// file at path byte for byte (or rewrites the file under UPDATE_GOLDEN).
func checkGolden(t *testing.T, m Matrix, path string) {
	t.Helper()
	m.Jobs = 1
	set, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := set.CSV()
	if updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		// Find the first differing line for a readable failure.
		gl := splitLines(got)
		wl := splitLines(string(want))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("sweep CSV diverged from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("sweep CSV diverged from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
