package bench

import (
	"context"
	"testing"

	"raccd/client"
	"raccd/internal/service/exec"
	"raccd/internal/sim"
	"raccd/internal/workloads"
)

// tracedSpecs returns one run of each workload's kind, small enough for a
// unit test: a Fig 2 benchmark, an m64 trace under ADR with the OoO core
// and prefetcher, an m64 trace at 1:16, a warm-pool run and a fresh run.
func tracedSpecs(t *testing.T) map[string]client.RunRequest {
	t.Helper()
	runs, err := recordM64(1, m64Short, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := &fabricMixed{size: freshNormal, freshBase: 1}
	return map[string]client.RunRequest{
		"fig2-sweep":            {Workload: "Jacobi", Scale: 0.25, System: "RaCCD"},
		"m64-trace-replay":      runs[len(m64Configs)-1].req,
		"m64-trace-replay/1:16": runs[0].req,
		"serve-warm":            fig2Requests(poolScale)[1],
		"fabric-mixed":          f.freshRun(),
	}
}

func mustAssemble(t *testing.T, req client.RunRequest) (*assembly, sim.Result) {
	t.Helper()
	cfg, err := exec.BuildConfig(req, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.Get(req.Workload, exec.Scale(req))
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.RunContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := assemble(req.Workload, exec.Scale(req), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	return a, want
}

// TestTracedRunMatchesSimRun pins the traced run to sim.Run: assembled
// from public pieces with recorders in place, it must simulate exactly
// what sim.Run simulates.
func TestTracedRunMatchesSimRun(t *testing.T) {
	for name, req := range tracedSpecs(t) {
		a, want := mustAssemble(t, req)
		if a.cycles != want.Cycles || a.final != want.HStats {
			t.Errorf("%s: traced run %d cycles, stats %+v; sim.Run %d cycles, stats %+v",
				name, a.cycles, a.final, want.Cycles, want.HStats)
		}
	}
}

// TestCoherenceReplayReproducesStats replays each captured machine-call
// stream into a fresh hierarchy, and checks that a corrupted stream is
// caught.
func TestCoherenceReplayReproducesStats(t *testing.T) {
	for name, req := range tracedSpecs(t) {
		a, _ := mustAssemble(t, req)
		if _, err := a.replayCoherence(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		a.rec.calls[len(a.rec.calls)/2].lat++
		if _, err := a.replayCoherence(); err == nil {
			t.Errorf("%s: a corrupted latency went unnoticed", name)
		}
	}
}

// TestRuntimeReplayReproducesMakespan runs the runtime against the
// captured latencies: the makespan must match and every captured call
// must be consumed, and a stream one call short must be caught.
func TestRuntimeReplayReproducesMakespan(t *testing.T) {
	for name, req := range tracedSpecs(t) {
		a, _ := mustAssemble(t, req)
		if _, err := a.replayRuntime(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		a.rec.calls = append(a.rec.calls, call{kind: callInvalidate})
		if _, err := a.replayRuntime(); err == nil {
			t.Errorf("%s: an unconsumed captured call went unnoticed", name)
		}
	}
}

// TestCPUReplayReproducesStats replays the OoO-plus-prefetcher core
// models' captured streams into fresh models, and checks that a
// corrupted charge is caught.
func TestCPUReplayReproducesStats(t *testing.T) {
	req := tracedSpecs(t)["m64-trace-replay"]
	a, want := mustAssemble(t, req)
	_, stats, err := a.replayCPU()
	if err != nil {
		t.Fatal(err)
	}
	if stats.PrefetchIssued == 0 || stats.PrefetchIssued != want.PrefetchIssued || stats.PrefetchUseful != want.PrefetchUseful {
		t.Errorf("replayed models issued %d prefetches (%d useful); sim.Run %d (%d)",
			stats.PrefetchIssued, stats.PrefetchUseful, want.PrefetchIssued, want.PrefetchUseful)
	}
	for _, mr := range a.models {
		if len(mr.calls) > 0 {
			mr.calls[len(mr.calls)-1].charged++
			break
		}
	}
	if _, _, err := a.replayCPU(); err == nil {
		t.Error("a corrupted charge went unnoticed")
	}
}
