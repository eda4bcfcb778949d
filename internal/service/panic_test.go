package service

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"raccd/client"
	"raccd/internal/mem"
	"raccd/internal/rts"
	"raccd/internal/tracefile"
	"raccd/internal/workloads"
)

// writeMisannotatedTrace writes an RTF trace of valid tasks, each
// storing to the one block it declares out, followed by one task that
// stores at 0x20000000, outside the single block its out annotation
// declares — so every validated replay of it panics in the runtime's
// strict check once the valid tasks have run.
func writeMisannotatedTrace(t *testing.T, valid int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bad.rtf")
	w := workloads.New("misannotated", func(g *rts.Graph) {
		out := []rts.Dep{{Range: mem.Range{Start: 0x1000_0000, Size: mem.BlockSize}, Mode: rts.Out}}
		for i := 0; i <= valid; i++ {
			store := mem.Addr(0x1000_0000)
			if i == valid {
				store = 0x2000_0000
			}
			g.Add(fmt.Sprintf("t%d", i), out, func(ctx *rts.Ctx) { ctx.Store(store) })
		}
	})
	tr, err := tracefile.Record(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tracefile.WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestPanickingRunFailsItsJob: a simulation that panics fails its own
// job, not the daemon. Sweeps and batches run their simulations on the
// coordinator's runner goroutines, not on the job's own goroutine whose
// recover guards the job body, so the panic must be contained by the
// simulation itself. The same server then still completes a normal run.
func TestPanickingRunFailsItsJob(t *testing.T) {
	_, c := newTestServer(t, Options{InFlight: 2})
	ctx := context.Background()
	workload := "trace:" + writeMisannotatedTrace(t, 0)
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

// TestJoinedRunSurvivesSiblingFailure: a run that joins an identical run
// in flight under another job does not inherit that job's cancellation.
// Batch A pairs a trace whose last task panics with a Cholesky run; run
// B, submitted just after, is the same Cholesky run, so the result store
// makes it wait on A's computation. When A's trace run fails, A cancels
// its Cholesky run — and B, a valid run, must still finish.
func TestJoinedRunSurvivesSiblingFailure(t *testing.T) {
	// Room for A's two runs and B's at once, so B reaches the store
	// while A's Cholesky run is still computing.
	_, c := newTestServer(t, Options{InFlight: 4})
	ctx := context.Background()
	workload := "trace:" + writeMisannotatedTrace(t, 3000)
	cholesky := client.RunRequest{Workload: "Cholesky", Scale: 2, System: "RaCCD"}

	a, err := c.SubmitBatch(ctx, client.BatchRequest{Runs: []client.RunRequest{
		{Workload: workload, System: "PT"},
		cholesky,
	}})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	b, err := c.SubmitRun(ctx, cholesky)
	if err != nil {
		t.Fatal(err)
	}

	finA, err := c.Wait(ctx, a.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if finA.State != "failed" || !strings.Contains(finA.Error, "outside its declared out/inout ranges") {
		t.Fatalf("batch A ended %s (%q), want failed with the trace's panic", finA.State, finA.Error)
	}
	finB, err := c.Wait(ctx, b.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if finB.State != "done" {
		t.Fatalf("run B ended %s (%q), want done", finB.State, finB.Error)
	}
}
