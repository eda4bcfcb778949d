package report

import (
	"strings"
	"testing"

	"raccd/internal/coherence"
	"raccd/internal/sim"
)

func fakeResult(w string, sys coherence.Mode, ratio int, adr bool, cycles uint64) sim.Result {
	return sim.Result{
		Workload: w, System: sys, DirRatio: ratio, ADR: adr,
		Cycles: cycles, DirAccesses: cycles / 10, NoCByteHops: cycles * 2,
		LLCHitRatio: 0.5, DirEnergy: float64(cycles) / 100,
		DirOccupancy: 0.3, NCFraction: 0.7,
	}
}

func smallSet() *Set {
	var rs []sim.Result
	for _, w := range []string{"A", "B"} {
		for _, sys := range Systems {
			for _, n := range Ratios {
				rs = append(rs, fakeResult(w, sys, n, false, uint64(1000*n)))
			}
		}
		rs = append(rs, fakeResult(w, coherence.RaCCD, 1, true, 900))
	}
	return NewSet(rs)
}

// TestProgressLine pins the progress line format shared by sweeps, runs,
// batches and served sweeps: the scheme column carries +ADR and a
// recalled run is tagged.
func TestProgressLine(t *testing.T) {
	for _, tc := range []struct {
		res    sim.Result
		cached bool
		want   string
	}{
		{sim.Result{Workload: "Jacobi", System: coherence.PT, DirRatio: 16, Cycles: 42}, false,
			"Jacobi    PT       1:16  cycles=42"},
		{sim.Result{Workload: "MD5", System: coherence.RaCCD, DirRatio: 1, ADR: true, Cycles: 7}, true,
			"MD5       RaCCD   +ADR 1:1   cycles=7 (cached)"},
	} {
		if got := KeyOf(tc.res).ProgressLine(tc.res.Cycles, tc.cached); got != tc.want {
			t.Errorf("ProgressLine = %q, want %q", got, tc.want)
		}
	}
}

func TestSetGetAndOrder(t *testing.T) {
	s := smallSet()
	if got := s.Workloads(); len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Fatalf("workload order %v", got)
	}
	r, ok := s.Get("A", coherence.PT, 4, false)
	if !ok || r.Cycles != 4000 {
		t.Fatalf("Get returned %+v %v", r, ok)
	}
	if _, ok := s.Get("C", coherence.PT, 4, false); ok {
		t.Fatal("Get of absent key succeeded")
	}
}

func TestFig2Content(t *testing.T) {
	out := smallSet().Fig2()
	if !strings.Contains(out, "Fig 2") || !strings.Contains(out, "RaCCD") {
		t.Fatalf("Fig2 output malformed:\n%s", out)
	}
	if !strings.Contains(out, "0.700") {
		t.Fatalf("Fig2 missing NC fraction value:\n%s", out)
	}
	if !strings.Contains(out, "Average") {
		t.Fatal("Fig2 missing Average row")
	}
}

func TestFig6Normalisation(t *testing.T) {
	out := smallSet().Fig6()
	// Every run of ratio 1:1 has cycles 1000 = FullCoh 1:1 → normalised 1.000.
	if !strings.Contains(out, "1.000") {
		t.Fatalf("Fig6 missing normalised baseline:\n%s", out)
	}
	// 1:256 runs have cycles 256000 → 256.000.
	if !strings.Contains(out, "256.000") {
		t.Fatalf("Fig6 missing 1:256 value:\n%s", out)
	}
	// One table per system.
	if strings.Count(out, "Fig 6") != 3 {
		t.Fatalf("Fig6 should render 3 system tables:\n%s", out)
	}
}

func TestFig7FamilyRenders(t *testing.T) {
	s := smallSet()
	for name, f := range map[string]func() string{
		"7a": s.Fig7a, "7b": s.Fig7b, "7c": s.Fig7c, "7d": s.Fig7d,
	} {
		out := f()
		if !strings.Contains(out, "Fig 7"+name[1:]) {
			t.Errorf("%s output missing title:\n%s", name, out)
		}
		if !strings.Contains(out, "RaCCD") {
			t.Errorf("%s missing system tables", name)
		}
	}
}

func TestFig8And9And10(t *testing.T) {
	s := smallSet()
	if out := s.Fig8(); !strings.Contains(out, "0.300") {
		t.Fatalf("Fig8 missing occupancy:\n%s", out)
	}
	out9 := s.Fig9()
	if !strings.Contains(out9, "RaCCD+ADR") || !strings.Contains(out9, "0.900") {
		t.Fatalf("Fig9 missing ADR column:\n%s", out9)
	}
	out10 := s.Fig10()
	if !strings.Contains(out10, "Fig 10") {
		t.Fatalf("Fig10 malformed:\n%s", out10)
	}
}

func TestMissingCellsRenderDash(t *testing.T) {
	s := NewSet([]sim.Result{fakeResult("X", coherence.FullCoh, 1, false, 100)})
	out := s.Fig6()
	if !strings.Contains(out, "-") {
		t.Fatalf("missing cells should render '-':\n%s", out)
	}
}

func TestTable3Values(t *testing.T) {
	out := Table3()
	for _, want := range []string{"524288", "2048", "4224.0", "16.5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table3 missing %q:\n%s", want, out)
		}
	}
}

func TestNCRTLatencyTable(t *testing.T) {
	cycles := map[uint64]map[string]uint64{
		1:  {"A": 1000, "B": 2000},
		10: {"A": 1100, "B": 2100},
	}
	out := NCRTLatencyTable([]uint64{1, 10}, cycles)
	if !strings.Contains(out, "1.0000") {
		t.Fatalf("baseline slowdown missing:\n%s", out)
	}
	// (1.1 + 1.05)/2 = 1.075
	if !strings.Contains(out, "1.0750") {
		t.Fatalf("latency-10 slowdown missing:\n%s", out)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	out := smallSet().CSV()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// 2 workloads × 3 systems × 7 ratios + 2 ADR + header.
	want := 2*3*7 + 2 + 1
	if len(lines) != want {
		t.Fatalf("CSV has %d lines, want %d", len(lines), want)
	}
	if !strings.HasPrefix(lines[0], "workload,system,ratio") {
		t.Fatalf("CSV header wrong: %s", lines[0])
	}
}

// Tiny end-to-end harness run: one benchmark, two ratios, validation on.
func TestMatrixRunSmall(t *testing.T) {
	m := Matrix{
		Workloads: []string{"MD5"},
		Systems:   Systems,
		Ratios:    []int{1, 16},
		ADR:       true,
		Scale:     0.1,
		Validate:  true,
	}
	var progress int
	m.Progress = func(string) { progress++ }
	set, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 3 systems × 2 ratios + 2 ADR runs (PT, RaCCD).
	if progress != 8 {
		t.Fatalf("progress callbacks = %d, want 8", progress)
	}
	if _, ok := set.Get("MD5", coherence.RaCCD, 1, true); !ok {
		t.Fatal("ADR run missing from set")
	}
	if out := set.Fig2(); !strings.Contains(out, "MD5") {
		t.Fatal("figure from real sweep missing benchmark row")
	}
}

func TestNCRTSweepSmall(t *testing.T) {
	m := Matrix{Workloads: []string{"Jacobi"}, Scale: 0.08, Validate: true}
	cycles, err := m.RunNCRTSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(cycles) != len(NCRTLatencies) {
		t.Fatalf("sweep covered %d latencies, want %d", len(cycles), len(NCRTLatencies))
	}
	if cycles[10]["Jacobi"] < cycles[1]["Jacobi"] {
		t.Fatal("10-cycle NCRT faster than 1-cycle")
	}
	out := NCRTLatencyTable(NCRTLatencies, cycles)
	if !strings.Contains(out, "slowdown") {
		t.Fatalf("table malformed:\n%s", out)
	}
}
