package service

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"raccd/client"
	"raccd/internal/mem"
	"raccd/internal/rts"
	"raccd/internal/tracefile"
)

// writeMisannotatedTrace writes an RTF trace whose one task stores at
// 0x20000000, outside the single block its out annotation declares, so
// every validated replay of it panics in the runtime's strict check.
func writeMisannotatedTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bad.rtf")
	tr := &tracefile.Trace{
		Header: tracefile.Header{Name: "misannotated"},
		Tasks: []tracefile.TaskTrace{{
			Name: "t0",
			Deps: []rts.Dep{{Range: mem.Range{Start: 0x1000_0000, Size: mem.BlockSize}, Mode: rts.Out}},
			Ops:  []tracefile.Op{{Kind: tracefile.OpStore, Block: mem.BlockOf(0x2000_0000)}},
		}},
	}
	if err := tracefile.WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestPanickingRunFailsItsJob: a simulation that panics fails its own
// job, not the daemon. Sweeps and batches run their simulations on
// runner and coordinator goroutines, outside the job worker's recover,
// so the panic must be contained by the simulation itself. The same
// server then still completes a normal run.
func TestPanickingRunFailsItsJob(t *testing.T) {
	_, c := newTestServer(t, Options{SimJobs: 2})
	ctx := context.Background()
	workload := "trace:" + writeMisannotatedTrace(t)
	const want = "stores 0x20000000 outside its declared out/inout ranges"

	sweep, err := c.SubmitSweep(ctx, client.SweepRequest{
		Workloads: []string{workload},
		Systems:   []string{"FullCoh", "PT", "RaCCD"},
		Ratios:    []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := c.SubmitBatch(ctx, client.BatchRequest{Runs: []client.RunRequest{
		{Workload: workload, System: "PT"},
		{Workload: workload, System: "RaCCD"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{sweep.ID, batch.ID} {
		fin, err := c.Wait(ctx, id, nil)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if fin.State != "failed" {
			t.Fatalf("job %s (%s) ended %s, want failed", id, fin.Kind, fin.State)
		}
		if !strings.Contains(fin.Error, "sim: misannotated/") || !strings.Contains(fin.Error, want) {
			t.Errorf("job %s (%s) error %q, want the run's panic as a sim error", id, fin.Kind, fin.Error)
		}
	}

	st, err := c.SubmitRun(ctx, client.RunRequest{Workload: "MD5", Scale: 0.05, System: "RaCCD"})
	if err != nil {
		t.Fatal(err)
	}
	if fin, err := c.Wait(ctx, st.ID, nil); err != nil || fin.State != "done" {
		t.Fatalf("normal run after the failures: %v, %+v", err, fin)
	}
}
