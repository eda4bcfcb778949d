package report

import (
	"strings"
	"testing"

	"raccd/internal/coherence"
	"raccd/internal/sim"
)

func TestCSVRoundTripParse(t *testing.T) {
	orig := smallSet()
	parsed, err := ParseCSV(strings.NewReader(orig.CSV()))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range orig.Workloads() {
		for _, sys := range Systems {
			for _, n := range Ratios {
				o, ok1 := orig.Get(w, sys, n, false)
				p, ok2 := parsed.Get(w, sys, n, false)
				if ok1 != ok2 {
					t.Fatalf("%s/%v/1:%d: presence mismatch", w, sys, n)
				}
				if !ok1 {
					continue
				}
				if o.Cycles != p.Cycles || o.DirAccesses != p.DirAccesses ||
					o.NCFraction != p.NCFraction || o.DirEnergy != p.DirEnergy {
					t.Fatalf("%s/%v/1:%d: round trip mismatch:\n%+v\n%+v", w, sys, n, o, p)
				}
			}
		}
	}
	// ADR rows survive too.
	if _, ok := parsed.Get("A", coherence.RaCCD, 1, true); !ok {
		t.Fatal("ADR row lost in round trip")
	}
}

func TestParseCSVErrors(t *testing.T) {
	cases := []string{
		"not,a,header\nA,RaCCD,1,false,1,1,0,1,0,0,0,0,1,1,1",
		"workload,system,...\nA,Quantum,1,false,1,1,0,1,0,0,0,0,1,1,1",
		"workload,system,...\nA,RaCCD,1,false,1,1",
		"workload,system,...\nA,RaCCD,x,false,1,1,0,1,0,0,0,0,1,1,1",
	}
	for i, c := range cases {
		if _, err := ParseCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: bad CSV accepted", i)
		}
	}
}

func TestDiffDetectsChanges(t *testing.T) {
	oldSet := NewSet([]sim.Result{fakeResult("X", coherence.RaCCD, 1, false, 1000)})
	newSet := NewSet([]sim.Result{fakeResult("X", coherence.RaCCD, 1, false, 1100)})
	diffs := Diff(oldSet, newSet, 0.05)
	if len(diffs) == 0 {
		t.Fatal("10% cycle change not detected at 5% tolerance")
	}
	found := false
	for _, d := range diffs {
		if d.Metric == "cycles" && d.Old == 1000 && d.New == 1100 {
			found = true
		}
	}
	if !found {
		t.Fatalf("cycles diff missing: %+v", diffs)
	}
	if len(Diff(oldSet, newSet, 0.5)) != 0 {
		t.Fatal("10% change reported at 50% tolerance")
	}
	if len(Diff(oldSet, oldSet, 0.0001)) != 0 {
		t.Fatal("identical sets reported differences")
	}
}

// Diff walks the union of both sweeps' runs, at any ratio, in CSV row
// order: a run on one side only is a difference in itself, so a run that
// vanished cannot hide behind one that changed.
func TestDiffReportsRunsOnOneSideOnly(t *testing.T) {
	oldSet := NewSet([]sim.Result{
		fakeResult("Jacobi", coherence.RaCCD, 1, false, 1000),
		fakeResult("Jacobi", coherence.RaCCD, 32, false, 1000),
	})
	newSet := NewSet([]sim.Result{
		fakeResult("Jacobi", coherence.RaCCD, 32, false, 10000),
		fakeResult("Jacobi", coherence.PT, 1, true, 1000),
	})
	var got []string
	for _, d := range Diff(oldSet, newSet, 0.01) {
		if d.Only != "" {
			got = append(got, d.Key.String()+" only in "+d.Only)
		} else if d.Metric == "cycles" {
			got = append(got, d.Key.String()+" cycles")
		}
	}
	want := []string{
		"Jacobi/PT+ADR 1:1 only in new",
		"Jacobi/RaCCD 1:1 only in old",
		"Jacobi/RaCCD 1:32 cycles",
	}
	if strings.Join(got, "; ") != strings.Join(want, "; ") {
		t.Fatalf("diff = %q, want %q", got, want)
	}
	out := FormatDiff(Diff(oldSet, newSet, 0.01))
	for _, line := range []string{"1:1    run only in the old sweep", "1:1    run only in the new sweep"} {
		if !strings.Contains(out, line) {
			t.Errorf("diff output missing %q:\n%s", line, out)
		}
	}
	if d := Diff(newSet, newSet, 0); len(d) != 0 {
		t.Fatalf("identical sets reported differences: %+v", d)
	}
}

func TestFormatDiff(t *testing.T) {
	if !strings.Contains(FormatDiff(nil), "no differences") {
		t.Fatal("empty diff format wrong")
	}
	d := []DiffEntry{{Key: Key{"X", coherence.PT, 4, true}, Metric: "cycles", Old: 10, New: 20}}
	out := FormatDiff(d)
	for _, want := range []string{"X", "PT", "+ADR", "1:4", "cycles", "+100.0%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("diff output missing %q:\n%s", want, out)
		}
	}
}

func TestDiffRelZeroOld(t *testing.T) {
	d := DiffEntry{Old: 0, New: 5}
	if d.Rel() < 1e17 {
		t.Fatal("zero-to-nonzero change should be huge")
	}
	if (DiffEntry{Old: 0, New: 0}).Rel() != 0 {
		t.Fatal("zero-to-zero should be 0")
	}
}
