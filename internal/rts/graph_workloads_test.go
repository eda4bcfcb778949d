package rts_test

import (
	"testing"

	"raccd/internal/rts"
	"raccd/internal/workloads"
	"raccd/internal/workloads/synth"
)

// TestGraphMatchesReferenceOnWorkloads builds every paper benchmark and
// every synth preset at small scale and holds the graph to the reference
// tracker: same edge count, and per task the same predecessor count and
// successors in the same order.
func TestGraphMatchesReferenceOnWorkloads(t *testing.T) {
	names := workloads.PaperSet()
	for _, p := range synth.Presets() {
		names = append(names, synth.Canonical(p))
	}
	for _, name := range names {
		w, err := workloads.Get(name, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		g := rts.NewGraph()
		w.Build(g)
		if err := rts.DiffReference(g); err != nil {
			t.Errorf("%s (%d tasks, %d edges): %v", name, g.NumTasks(), g.NumEdges(), err)
		}
	}
}
