package report

import (
	"strings"
	"testing"

	"raccd/internal/coherence"
	"raccd/internal/energy"
	"raccd/internal/machine"
)

// TestTable3AcrossGeometries is the geometry-scaling check for the Table
// III analysis: the full-scale entry counts (and therefore storage) must be
// derived from the directory geometry, scaling 2× and 4× with the 32- and
// 64-core presets.
func TestTable3AcrossGeometries(t *testing.T) {
	cases := []struct {
		m           machine.Machine
		fullEntries string // 1:1 column
		oneTo256    string // 1:256 column
	}{
		{machine.Paper16(), "524288", "2048"},
		{machine.Machine32(), "1048576", "4096"},
		{machine.Machine64(), "2097152", "8192"},
	}
	for _, c := range cases {
		out := Table3For(c.m.Params())
		if !strings.Contains(out, c.fullEntries) {
			t.Errorf("%s: Table III missing 1:1 entry count %s:\n%s", c.m.Name(), c.fullEntries, out)
		}
		if !strings.Contains(out, c.oneTo256) {
			t.Errorf("%s: Table III missing 1:256 entry count %s:\n%s", c.m.Name(), c.oneTo256, out)
		}
	}
	// The default rendering is byte-identical to the legacy Table3 and
	// keeps the published comparison line.
	if Table3() != Table3For(coherence.DefaultParams()) {
		t.Error("Table3() must equal Table3For(DefaultParams())")
	}
	if !strings.Contains(Table3(), "paper: 4224") {
		t.Error("paper16 Table III lost the published comparison line")
	}
	if strings.Contains(Table3(), "—") {
		t.Error("paper16 Table III must not carry a machine suffix")
	}
	if out := Table3For(machine.Machine64().Params()); !strings.Contains(out, "m64") {
		t.Errorf("m64 Table III must name the machine:\n%s", out)
	}
}

// TestMatrixMachineSweep runs a tiny matrix end to end on the 64-core
// preset — the non-16-core sweep path of the acceptance criteria — and
// checks the run really happened on the big machine.
func TestMatrixMachineSweep(t *testing.T) {
	m := Matrix{
		Workloads: []string{"Jacobi"},
		Systems:   []coherence.Mode{coherence.PT, coherence.RaCCD},
		Ratios:    []int{1},
		Scale:     0.1,
		Validate:  true,
		Jobs:      1,
		Machine:   machine.Machine64(),
	}
	set, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	r, ok := set.Get("Jacobi", coherence.RaCCD, 1, false)
	if !ok {
		t.Fatal("missing RaCCD result")
	}
	// The run's own hierarchy is released; rebuild it from the config
	// the matrix built, and tie the run to that geometry through DirKB.
	h := coherence.New(coherence.RaCCD, m.knobs(Key{System: coherence.RaCCD, Ratio: 1}).Resolve().Params)
	if want := energy.DirectorySizeKB(h.Dir().Capacity()); r.DirKB != want {
		t.Fatalf("run charged a %g KB directory, want %g KB", r.DirKB, want)
	}
	if h.Params.Cores != 64 || h.Mesh().Tiles() != 64 {
		t.Fatalf("sweep ran on %d cores / %d tiles, want 64", h.Params.Cores, h.Mesh().Tiles())
	}
	if w, hh := h.Mesh().Dims(); w != 8 || hh != 8 {
		t.Fatalf("mesh %d×%d, want 8×8", w, hh)
	}
	if r.Cycles == 0 || r.TasksRun == 0 {
		t.Fatal("empty result")
	}
}

// TestRunMachinesAcrossPresets sweeps the Fig 2 matrix across two machine
// presets and renders the comparison table.
func TestRunMachinesAcrossPresets(t *testing.T) {
	m := Matrix{
		Workloads: []string{"MD5"},
		Systems:   []coherence.Mode{coherence.PT, coherence.RaCCD},
		Ratios:    []int{1},
		Scale:     0.05,
		Validate:  true,
		Jobs:      1,
	}
	var progress []string
	m.Progress = func(msg string) { progress = append(progress, msg) }
	sets, err := m.RunMachines([]machine.Machine{machine.Paper16(), machine.Machine64()})
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 2 {
		t.Fatalf("%d machine sets, want 2", len(sets))
	}
	out := Fig2AcrossMachines(sets)
	for _, want := range []string{"paper16 PT", "paper16 RaCCD", "m64 PT", "m64 RaCCD", "MD5", "Average"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig2AcrossMachines missing %q:\n%s", want, out)
		}
	}
	// Progress lines carry the machine name for attribution.
	var sawPaper, sawM64 bool
	for _, p := range progress {
		if strings.HasPrefix(p, "paper16 ") {
			sawPaper = true
		}
		if strings.HasPrefix(p, "m64 ") {
			sawM64 = true
		}
	}
	if !sawPaper || !sawM64 {
		t.Errorf("progress lines missing machine prefixes: %q", progress)
	}
}
