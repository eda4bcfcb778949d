package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"

	"raccd/client"
	"raccd/internal/obs"
)

var traceIDRe = regexp.MustCompile(`^[0-9a-f]{16}$`)

// TestTraceEchoOnResponses pins the middleware's header contract: a
// request carrying X-Raccd-Trace gets it echoed back verbatim; a bare
// request gets a freshly minted ID in the canonical format.
func TestTraceEchoOnResponses(t *testing.T) {
	s, _ := newTestServer(t, Options{})

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set(obs.TraceHeader, "deadbeefcafef00d")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if got := rec.Header().Get(obs.TraceHeader); got != "deadbeefcafef00d" {
		t.Fatalf("trace not echoed: got %q", got)
	}

	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if got := rec.Header().Get(obs.TraceHeader); !traceIDRe.MatchString(got) {
		t.Fatalf("minted trace %q does not match %v", got, traceIDRe)
	}
}

// TestTracePropagationEndToEnd submits a run under a client-chosen trace
// ID and follows it through the whole surface: the job status reports
// it, and every SSE event payload carries it.
func TestTracePropagationEndToEnd(t *testing.T) {
	_, c := newTestServer(t, Options{})
	const trace = "0123456789abcdef"
	ctx := client.WithTraceID(context.Background(), trace)

	st, err := c.SubmitRun(ctx, client.RunRequest{Workload: "Jacobi", Scale: 0.05, System: "PT"})
	if err != nil {
		t.Fatal(err)
	}
	if st.TraceID != trace {
		t.Fatalf("submitted status trace = %q, want %q", st.TraceID, trace)
	}
	fin, err := c.Wait(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != "done" || fin.TraceID != trace {
		t.Fatalf("finished status = %q trace %q", fin.State, fin.TraceID)
	}

	var events int
	if err := c.Events(ctx, st.ID, -1, func(e client.Event) error {
		events++
		var payload map[string]any
		if err := json.Unmarshal(e.Data, &payload); err != nil {
			t.Fatalf("event %d payload: %v", e.ID, err)
		}
		if payload["trace"] != trace {
			t.Fatalf("event %d (%s) missing trace: %s", e.ID, e.Type, e.Data)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if events < 4 {
		t.Fatalf("only %d events replayed", events)
	}
}

// TestEventsResumeBeyondEndHTTP: the ?after= cursor past the end of a
// finished job's log ends the stream immediately with zero events — the
// HTTP face of the queue-level beyond-end contract.
func TestEventsResumeBeyondEndHTTP(t *testing.T) {
	_, c := newTestServer(t, Options{})
	ctx := context.Background()
	st, err := c.SubmitRun(ctx, client.RunRequest{Workload: "Jacobi", Scale: 0.05, System: "PT"})
	if err != nil {
		t.Fatal(err)
	}
	if fin, err := c.Wait(ctx, st.ID, nil); err != nil || fin.State != "done" {
		t.Fatalf("run: %v, %+v", err, fin)
	}
	var events int
	if err := c.Events(ctx, st.ID, 9999, func(e client.Event) error {
		events++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if events != 0 {
		t.Fatalf("resume beyond end replayed %d events, want 0", events)
	}
}

// TestJobPhasesSumToWallTime is the phase-accounting acceptance check:
// for a single-run job the recorded phases (queue_wait, build, exec,
// store) tile the job's wall time — their sum lands within 5% of
// finished−created. Batch jobs accumulate concurrent runs and are
// exempt from this bound by design (see queue.Status.Phases).
func TestJobPhasesSumToWallTime(t *testing.T) {
	_, c := newTestServer(t, Options{})
	ctx := context.Background()
	// A large enough run that fixed per-job overhead (spec decode, CSV
	// assembly) stays far below the 5% bound.
	st, err := c.SubmitRun(ctx, client.RunRequest{Workload: "Jacobi", Scale: 0.3, System: "RaCCD", DirRatio: 16})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.Wait(ctx, st.ID, nil)
	if err != nil || fin.State != "done" {
		t.Fatalf("run: %v, %+v", err, fin)
	}
	for _, phase := range []string{obs.PhaseQueueWait, obs.PhaseBuild, obs.PhaseExec, obs.PhaseStore} {
		if _, ok := fin.Phases[phase]; !ok {
			t.Errorf("phase %q missing from %v", phase, fin.Phases)
		}
	}
	if _, ok := fin.Phases[obs.PhaseFabric]; ok {
		t.Errorf("local run reported a fabric_rtt phase: %v", fin.Phases)
	}
	var sum float64
	for _, s := range fin.Phases {
		sum += s
	}
	wall := fin.Finished.Sub(fin.Created).Seconds()
	if wall <= 0 {
		t.Fatalf("bad wall time: created %v finished %v", fin.Created, fin.Finished)
	}
	if ratio := sum / wall; ratio < 0.95 || ratio > 1.0001 {
		t.Fatalf("phase sum %.6fs vs wall %.6fs (ratio %.3f), want within 5%%\nphases: %v",
			sum, wall, ratio, fin.Phases)
	}
}

// TestCachedRunHasNoBuildPhase: a run recalled from the store built no
// workload, so its job reports exec and store phases but no build
// phase, while the run that simulated it reports all three.
func TestCachedRunHasNoBuildPhase(t *testing.T) {
	_, c := newTestServer(t, Options{})
	ctx := context.Background()
	req := client.RunRequest{Workload: "Jacobi", Scale: 0.05, System: "RaCCD"}
	for i, wantBuild := range []bool{true, false} {
		st, err := c.SubmitRun(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		fin, err := c.Wait(ctx, st.ID, nil)
		if err != nil || fin.State != "done" {
			t.Fatalf("run %d: %v, %+v", i, err, fin)
		}
		for _, phase := range []string{obs.PhaseExec, obs.PhaseStore} {
			if _, ok := fin.Phases[phase]; !ok {
				t.Errorf("run %d: phase %q missing from %v", i, phase, fin.Phases)
			}
		}
		if _, ok := fin.Phases[obs.PhaseBuild]; ok != wantBuild {
			t.Errorf("run %d: build phase reported = %v, want %v (phases %v)", i, ok, wantBuild, fin.Phases)
		}
	}
}
