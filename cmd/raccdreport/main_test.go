package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const csvHeader = "workload,system,ratio,adr,cycles,dir_accesses,llc_hit_ratio,noc_byte_hops,dir_energy,dir_occupancy,nc_fraction,l1_hit_ratio,mem_reads,mem_writes,tasks\n"

func row(workload string, cycles uint64) string {
	return workload + ",RaCCD,1,false," + uitoa(cycles) + ",1000,0.500000,2000,100.000,0.100000,0.700000,0.900000,10,20,8\n"
}

func uitoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func writeCSV(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runReport(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw strings.Builder
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestIdenticalSweepsExitZero(t *testing.T) {
	csv := csvHeader + row("Jacobi", 1000)
	old := writeCSV(t, "old.csv", csv)
	new_ := writeCSV(t, "new.csv", csv)
	code, stdout, _ := runReport(t, "-old", old, "-new", new_)
	if code != 0 {
		t.Fatalf("identical sweeps exited %d", code)
	}
	if !strings.Contains(stdout, "no differences") {
		t.Errorf("stdout = %q, want a no-differences message", stdout)
	}
}

func TestDifferenceBeyondToleranceExitsOne(t *testing.T) {
	old := writeCSV(t, "old.csv", csvHeader+row("Jacobi", 1000))
	new_ := writeCSV(t, "new.csv", csvHeader+row("Jacobi", 1100)) // +10 %
	code, stdout, _ := runReport(t, "-old", old, "-new", new_, "-tol", "0.05")
	if code != 1 {
		t.Fatalf("10%% cycle change at 5%% tolerance exited %d, want 1", code)
	}
	if !strings.Contains(stdout, "cycles") || !strings.Contains(stdout, "Jacobi") {
		t.Errorf("diff output %q missing the changed metric", stdout)
	}
}

func TestDifferenceWithinToleranceExitsZero(t *testing.T) {
	old := writeCSV(t, "old.csv", csvHeader+row("Jacobi", 1000))
	new_ := writeCSV(t, "new.csv", csvHeader+row("Jacobi", 1100)) // +10 %
	code, _, _ := runReport(t, "-old", old, "-new", new_, "-tol", "0.2")
	if code != 0 {
		t.Fatalf("10%% change at 20%% tolerance exited %d, want 0", code)
	}
}

// A run present in only one sweep is a difference, at any ratio: here
// the old sweep's 1:1 run vanished and its 1:32 run got 10× slower.
func TestRunOnOneSideOnlyExitsOne(t *testing.T) {
	at32 := func(r string) string { return strings.Replace(r, ",RaCCD,1,", ",RaCCD,32,", 1) }
	old := writeCSV(t, "old.csv", csvHeader+row("Jacobi", 1000)+at32(row("Jacobi", 1000)))
	new_ := writeCSV(t, "new.csv", csvHeader+at32(row("Jacobi", 10000)))
	code, stdout, _ := runReport(t, "-old", old, "-new", new_)
	if code != 1 {
		t.Fatalf("vanished run exited %d, want 1; stdout:\n%s", code, stdout)
	}
	for _, want := range []string{"run only in the old sweep", "1:32", "cycles"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("diff output missing %q:\n%s", want, stdout)
		}
	}
	// The same runs the other way round: the 1:1 run is new.
	code, stdout, _ = runReport(t, "-old", new_, "-new", old)
	if code != 1 || !strings.Contains(stdout, "run only in the new sweep") {
		t.Fatalf("added run exited %d with:\n%s", code, stdout)
	}
}

func TestMissingFlagsExitTwo(t *testing.T) {
	code, _, stderr := runReport(t)
	if code != 2 {
		t.Fatalf("missing flags exited %d, want 2", code)
	}
	if !strings.Contains(stderr, "-old and -new are required") {
		t.Errorf("stderr = %q, want required-flags diagnostic", stderr)
	}
}

func TestUnreadableFileExitsTwo(t *testing.T) {
	old := writeCSV(t, "old.csv", csvHeader+row("Jacobi", 1000))
	code, _, stderr := runReport(t, "-old", old, "-new", filepath.Join(t.TempDir(), "missing.csv"))
	if code != 2 {
		t.Fatalf("missing candidate file exited %d, want 2", code)
	}
	if !strings.Contains(stderr, "raccdreport:") {
		t.Errorf("stderr = %q, want a diagnostic", stderr)
	}
}

func TestMalformedCSVExitsTwo(t *testing.T) {
	old := writeCSV(t, "old.csv", csvHeader+row("Jacobi", 1000))
	bad := writeCSV(t, "bad.csv", "not,a,sweep\n1,2,3\n")
	code, _, stderr := runReport(t, "-old", old, "-new", bad)
	if code != 2 {
		t.Fatalf("malformed CSV exited %d, want 2", code)
	}
	if !strings.Contains(stderr, "bad.csv") {
		t.Errorf("stderr = %q, want the offending path", stderr)
	}
}

func TestUnknownFlagExitsTwo(t *testing.T) {
	code, _, _ := runReport(t, "-no-such-flag")
	if code != 2 {
		t.Fatalf("unknown flag exited %d, want 2", code)
	}
}
