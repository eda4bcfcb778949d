package synth_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"raccd/internal/coherence"
	"raccd/internal/rts"
	"raccd/internal/sim"
	"raccd/internal/tracefile"
	"raccd/internal/workloads"
	"raccd/internal/workloads/synth"
)

// smallParams shrinks a preset enough for per-test simulation.
func smallParams(t *testing.T, preset string) synth.Params {
	t.Helper()
	p, err := synth.Default(preset)
	if err != nil {
		t.Fatal(err)
	}
	p.Width = 4
	p.Depth = 6
	p.BlocksPerTask = 8
	if p.SharedBlocks > 0 {
		p.SharedBlocks = 64
	}
	return p
}

// Every preset must run to completion under every scheme with golden-memory
// and invariant validation on.
func TestPresetsRunUnderAllSchemes(t *testing.T) {
	for _, preset := range synth.Presets() {
		for _, sys := range []coherence.Mode{coherence.FullCoh, coherence.PT, coherence.PTRO, coherence.RaCCD} {
			preset, sys := preset, sys
			t.Run(preset+"/"+sys.String(), func(t *testing.T) {
				w, err := synth.New(smallParams(t, preset))
				if err != nil {
					t.Fatal(err)
				}
				res, err := sim.Run(w, sim.DefaultConfig(sys, 16))
				if err != nil {
					t.Fatal(err)
				}
				if res.TasksRun == 0 || res.Cycles == 0 {
					t.Fatalf("degenerate run: %+v", res)
				}
			})
		}
	}
}

// A fixed seed must produce byte-identical RTF output, including when many
// goroutines build the same workload concurrently (the -jobs property).
func TestByteDeterminism(t *testing.T) {
	for _, preset := range synth.Presets() {
		preset := preset
		t.Run(preset, func(t *testing.T) {
			p := smallParams(t, preset)
			p.Unannotated = 0.25
			encode := func() []byte {
				w, err := synth.New(p)
				if err != nil {
					t.Fatal(err)
				}
				tr, err := tracefile.Record(w, tracefile.Fingerprint(w.Name()))
				if err != nil {
					t.Error(err)
					return nil
				}
				var buf bytes.Buffer
				if err := tracefile.Encode(&buf, tr); err != nil {
					t.Error(err)
					return nil
				}
				return buf.Bytes()
			}
			want := encode()
			const workers = 8
			got := make([][]byte, workers)
			var wg sync.WaitGroup
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i] = encode()
				}(i)
			}
			wg.Wait()
			for i := range got {
				if !bytes.Equal(got[i], want) {
					t.Fatalf("concurrent build %d produced different bytes", i)
				}
			}
		})
	}
}

// The canonical name round-trips through Parse, and the workloads registry
// resolves synth: specs.
func TestSpecRoundTrip(t *testing.T) {
	p, err := synth.Parse("synth:chain/seed=7/width=3/depth=5/unannotated=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.Width != 3 || p.Depth != 5 || p.Unannotated != 0.5 {
		t.Fatalf("parsed %+v", p)
	}
	back, err := synth.Parse(p.Name())
	if err != nil {
		t.Fatal(err)
	}
	if back != p {
		t.Fatalf("Parse(Name()) = %+v, want %+v", back, p)
	}

	// Defaults stay out of the canonical name.
	d, _ := synth.Default("stencil")
	if got := d.Name(); got != "synth:stencil" {
		t.Fatalf("default name = %q", got)
	}

	w, err := workloads.Get("synth:stencil/width=3/depth=4", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != "synth:stencil/width=3/depth=4" {
		t.Fatalf("registry workload name = %q", w.Name())
	}
	g := rts.NewGraph()
	w.Build(g)
	if g.NumTasks() != 12 {
		t.Fatalf("stencil 3×4 built %d tasks, want 12", g.NumTasks())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ spec, want string }{
		{"nosuch", "unknown preset"},
		{"chain/oops", "key=value"},
		{"chain/color=blue", "unknown spec key"},
		{"chain/seed=abc", "seed=abc"},
		{"chain/width=0", "at least 1"},
		{"chain/unannotated=1.5", "[0, 1]"},
		{"readonly/shared=0", "shared"},
		{"chain/width=2048/depth=2048", "cap"},
		// width×depth overflows int to 0 on 64-bit hosts.
		{"chain/width=4611686018427387904/depth=4", "cap"},
		{"chain/width=4294967296/depth=4294967296", "cap"},
		// Blocks per task past the dependence-block cap, including
		// counts whose product with the task count overflows int.
		{"chain/blocks=1000000000000", "dependence-block cap"},
		{"chain/blocks=9223372036854775807", "dependence-block cap"},
		{"chain/width=1024/depth=1024/blocks=17", "dependence-block cap"},
		{"readonly/shared=9223372036854775807", "dependence-block cap"},
	}
	for _, c := range cases {
		if _, err := synth.Parse(c.spec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) = %v, want mention of %q", c.spec, err, c.want)
		}
	}
}

// Unannotated tasks must be invisible to RaCCD: with every annotation
// dropped, RaCCD deactivates nothing (the JPEG worst case), while the
// fully annotated twin deactivates most of its traffic.
func TestUnannotatedStressesRaCCD(t *testing.T) {
	run := func(frac float64) sim.Result {
		p := smallParams(t, "chain")
		p.Unannotated = frac
		w, err := synth.New(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(w, sim.DefaultConfig(coherence.RaCCD, 1))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	annotated, blind := run(0), run(1)
	if blind.NCFraction != 0 {
		t.Fatalf("fully unannotated run still deactivated %.1f%% of blocks", blind.NCFraction*100)
	}
	if annotated.NCFraction == 0 {
		t.Fatal("annotated chain deactivated nothing; generator is not annotating")
	}
	if blind.DirAccesses <= annotated.DirAccesses {
		t.Fatalf("dropping annotations should raise directory pressure: %d <= %d",
			blind.DirAccesses, annotated.DirAccesses)
	}
}

// Scaling changes depth, not identity.
func TestScaled(t *testing.T) {
	p, _ := synth.Default("chain")
	s := p.Scaled(0.25)
	if s.Depth != p.Depth/4 {
		t.Fatalf("Scaled(0.25) depth = %d, want %d", s.Depth, p.Depth/4)
	}
	if tiny := p.Scaled(0.0001); tiny.Depth != 1 {
		t.Fatalf("scale floor: depth = %d, want 1", tiny.Depth)
	}
	// The registry keeps the unscaled spec as the workload's identity.
	w, err := workloads.Get("synth:chain", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != "synth:chain" {
		t.Fatalf("scaled registry workload renamed to %q", w.Name())
	}
	g := rts.NewGraph()
	w.Build(g)
	full, err := workloads.Get("synth:chain", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	gf := rts.NewGraph()
	full.Build(gf)
	if g.NumTasks() >= gf.NumTasks() {
		t.Fatalf("scale 0.25 built %d tasks, full scale %d", g.NumTasks(), gf.NumTasks())
	}
}

// Regression: mixed with a single pool range must clamp its random pick
// count, not slice past the permutation (found in review).
func TestMixedWidthOne(t *testing.T) {
	w, err := synth.New(synth.Params{Preset: "mixed", Seed: 3, Width: 1, Depth: 8, BlocksPerTask: 2, SharedBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	g := rts.NewGraph()
	w.Build(g) // panicked before the clamp
	if g.NumTasks() != 9 {
		t.Fatalf("built %d tasks, want 9", g.NumTasks())
	}
}

// Regression: NaN sneaks past naive range checks; the spec must reject it.
func TestUnannotatedNaNRejected(t *testing.T) {
	if _, err := synth.Parse("chain/unannotated=NaN"); err == nil || !strings.Contains(err.Error(), "[0, 1]") {
		t.Fatalf("NaN accepted: %v", err)
	}
}
