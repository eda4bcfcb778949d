package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"raccd/client"
	"raccd/internal/resultstore"
	"raccd/internal/service/exec"
	"raccd/internal/service/fabric"
	"raccd/internal/tracefile"
	"raccd/internal/workloads"
)

// startFabric brings up n worker daemons plus one coordinator over
// httptest and returns the coordinator's client, the worker servers (for
// stats assertions) and the coordinator server.
func startFabric(t *testing.T, n int, coordOpts Options) (*client.Client, []*Server, *Server) {
	t.Helper()
	urls := make([]string, n)
	workers := make([]*Server, n)
	for i := 0; i < n; i++ {
		store, err := resultstore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		ws, err := New(Options{Store: store})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(ws.Handler())
		t.Cleanup(hs.Close)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			ws.Shutdown(ctx)
		})
		urls[i] = hs.URL
		workers[i] = ws
	}
	coordOpts.Workers = urls
	coord, c := newTestServer(t, coordOpts)
	return c, workers, coord
}

// TestCoordinatorBatchMatchesGolden is the distributed equivalence pin:
// the golden sweep submitted to a 2-worker coordinator as one POST
// /v1/batch returns the seed golden CSV byte-identically, cold and warm,
// with the work split across both workers.
func TestCoordinatorBatchMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("../report/testdata/golden_small_sweep.csv")
	if err != nil {
		t.Fatal(err)
	}
	c, workers, _ := startFabric(t, 2, Options{})
	ctx := context.Background()

	m, err := exec.BuildMatrix(goldenSweep())
	if err != nil {
		t.Fatal(err)
	}
	specs, err := fabric.SpecsFromMatrix(m, goldenSweep().Machine)
	if err != nil {
		t.Fatal(err)
	}
	batch := client.BatchRequest{}
	for _, spec := range specs {
		batch.Runs = append(batch.Runs, spec.Request)
	}

	for _, phase := range []string{"cold", "warm"} {
		st, err := c.SubmitBatch(ctx, batch)
		if err != nil {
			t.Fatalf("%s: submit: %v", phase, err)
		}
		if st.Kind != "batch" || st.RunsTotal != len(batch.Runs) {
			t.Fatalf("%s: status = %+v", phase, st)
		}
		var progress int
		fin, err := c.Wait(ctx, st.ID, func(e client.Event) {
			if e.Type == "progress" {
				progress++
			}
		})
		if err != nil {
			t.Fatalf("%s: wait: %v", phase, err)
		}
		if fin.State != "done" {
			t.Fatalf("%s: job finished %q (%s)", phase, fin.State, fin.Error)
		}
		if progress != len(batch.Runs) || fin.RunsDone != len(batch.Runs) {
			t.Fatalf("%s: %d progress events, runs_done %d, want %d", phase, progress, fin.RunsDone, len(batch.Runs))
		}
		got, err := c.Result(ctx, st.ID)
		if err != nil {
			t.Fatalf("%s: result: %v", phase, err)
		}
		if got != string(want) {
			t.Fatalf("%s: coordinator batch CSV diverged from the seed golden", phase)
		}
	}

	// The rendezvous hash split the batch: both workers executed some
	// runs, together exactly the batch (twice: cold + warm), and the cold
	// simulations all missed while the warm pass all hit.
	var runsDone, misses, hits uint64
	for i, ws := range workers {
		snap := ws.Stats()
		if snap.RunsCompleted == 0 {
			t.Fatalf("worker %d executed nothing — degenerate partition", i)
		}
		runsDone += snap.RunsCompleted
		misses += snap.CacheMisses
		hits += snap.CacheHits
	}
	if int(runsDone) != 2*len(batch.Runs) {
		t.Fatalf("workers completed %d runs, want %d", runsDone, 2*len(batch.Runs))
	}
	if int(misses) != len(batch.Runs) || int(hits) != len(batch.Runs) {
		t.Fatalf("worker stores: %d misses / %d hits, want %d / %d", misses, hits, len(batch.Runs), len(batch.Runs))
	}
}

// TestCoordinatorSweepMatchesGolden covers the sweep path of a
// coordinator: POST /v1/sweeps expands into per-run specs, scatters, and
// still reproduces the golden CSV byte-identically.
func TestCoordinatorSweepMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("../report/testdata/golden_small_sweep.csv")
	if err != nil {
		t.Fatal(err)
	}
	c, _, _ := startFabric(t, 2, Options{})
	ctx := context.Background()

	st, err := c.SubmitSweep(ctx, goldenSweep())
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.Wait(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != "done" {
		t.Fatalf("job finished %q (%s)", fin.State, fin.Error)
	}
	got, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatal("coordinator sweep CSV diverged from the seed golden")
	}
}

// TestCoordinatorCrossNodeDedupe is the global-dedupe pin: 24 concurrent
// submissions of an identical run through a 2-worker coordinator cost
// exactly one simulation, because the rendezvous hash homes every copy on
// the same worker and that worker's store single-flights them.
func TestCoordinatorCrossNodeDedupe(t *testing.T) {
	c, workers, _ := startFabric(t, 2, Options{})
	ctx := context.Background()

	req := client.RunRequest{Workload: "Jacobi", Scale: 0.05, System: "RaCCD", DirRatio: 16}
	const submits = 24
	var wg sync.WaitGroup
	csvs := make([]string, submits)
	errs := make([]error, submits)
	for i := 0; i < submits; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := c.SubmitRun(ctx, req)
			if err != nil {
				errs[i] = err
				return
			}
			fin, err := c.Wait(ctx, st.ID, nil)
			if err != nil {
				errs[i] = err
				return
			}
			if fin.State != "done" {
				errs[i] = &client.APIError{StatusCode: 500, Message: fin.Error}
				return
			}
			csvs[i], errs[i] = c.Result(ctx, st.ID)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	for i := 1; i < submits; i++ {
		if csvs[i] != csvs[0] {
			t.Fatalf("submit %d returned a different CSV", i)
		}
	}
	var misses, executed uint64
	var owners int
	for _, ws := range workers {
		snap := ws.Stats()
		misses += snap.CacheMisses
		if snap.RunsCompleted > 0 {
			owners++
			executed += snap.RunsCompleted
		}
	}
	if misses != 1 {
		t.Fatalf("worker stores simulated %d times, want exactly 1 for %d submits", misses, submits)
	}
	if owners != 1 || executed != submits {
		t.Fatalf("runs landed on %d workers (%d total), want all %d on the rendezvous owner", owners, executed, submits)
	}
}

// TestCoordinatorBatchValidation pins batch rejection paths: zero runs,
// an invalid run (whole batch bounced), and an oversized batch.
func TestCoordinatorBatchValidation(t *testing.T) {
	_, c := newTestServer(t, Options{MaxSweepRuns: 4})
	ctx := context.Background()

	if _, err := c.SubmitBatch(ctx, client.BatchRequest{}); err == nil {
		t.Fatal("empty batch accepted")
	}
	bad := client.BatchRequest{Runs: []client.RunRequest{
		{Workload: "Jacobi", Scale: 0.05, System: "PT"},
		{Workload: "Jacobi", Scale: 0.05, System: "MESI"},
	}}
	_, err := c.SubmitBatch(ctx, bad)
	if apiErr, ok := err.(*client.APIError); !ok || apiErr.StatusCode != 400 || !strings.Contains(apiErr.Message, "run 1") {
		t.Fatalf("invalid run: err = %v, want 400 naming run 1", err)
	}
	big := client.BatchRequest{}
	for i := 0; i < 5; i++ {
		big.Runs = append(big.Runs, client.RunRequest{Workload: "Jacobi", Scale: 0.05, System: "PT"})
	}
	_, err = c.SubmitBatch(ctx, big)
	if apiErr, ok := err.(*client.APIError); !ok || apiErr.StatusCode != 400 {
		t.Fatalf("oversized batch: want 400, got %v", err)
	}
}

// TestBatchOnPlainDaemon: /v1/batch works without workers — the batch
// scatters across the daemon's own single Local backend and merges into
// one CSV identical to the golden sweep.
func TestBatchOnPlainDaemon(t *testing.T) {
	want, err := os.ReadFile("../report/testdata/golden_small_sweep.csv")
	if err != nil {
		t.Fatal(err)
	}
	_, c := newTestServer(t, Options{})
	ctx := context.Background()

	m, err := exec.BuildMatrix(goldenSweep())
	if err != nil {
		t.Fatal(err)
	}
	specs, err := fabric.SpecsFromMatrix(m, goldenSweep().Machine)
	if err != nil {
		t.Fatal(err)
	}
	batch := client.BatchRequest{}
	for _, spec := range specs {
		batch.Runs = append(batch.Runs, spec.Request)
	}
	st, err := c.SubmitBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.Wait(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != "done" {
		t.Fatalf("job finished %q (%s)", fin.State, fin.Error)
	}
	got, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatal("plain-daemon batch CSV diverged from the seed golden")
	}
}

// TestMetricsEndpoint scrapes GET /metrics after a run and checks the
// Prometheus exposition: counters present, histogram buckets cumulative,
// no execution-engine series.
func TestMetricsEndpoint(t *testing.T) {
	s, c := newTestServer(t, Options{})
	ctx := context.Background()
	st, err := c.SubmitRun(ctx, client.RunRequest{Workload: "MD5", Scale: 0.05, System: "RaCCD", DirRatio: 16})
	if err != nil {
		t.Fatal(err)
	}
	if fin, err := c.Wait(ctx, st.ID, nil); err != nil || fin.State != "done" {
		t.Fatalf("run: %v, %+v", err, fin)
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, _ := io.ReadAll(rec.Body)
	text := string(body)

	for _, want := range []string{
		"# TYPE raccd_queue_depth gauge",
		"raccd_queue_depth 0",
		`raccd_jobs{state="done"} 1`,
		"raccd_runs_completed_total 1",
		"raccd_store_misses_total 1",
		"raccd_store_hits_total 0",
		"raccd_store_coalesced_total 0",
		"raccd_store_evictions_total 0",
		"# TYPE raccd_store_bytes gauge",
		"# TYPE raccd_run_latency_seconds histogram",
		`raccd_run_latency_seconds_bucket{scheme="RaCCD",le="+Inf"} 1`,
		`raccd_run_latency_seconds_count{scheme="RaCCD"} 1`,
		`raccd_run_latency_seconds_sum{scheme="RaCCD"}`,
		`raccd_fabric_backend_up{backend="local"} 1`,
		`raccd_fabric_backend_requests_total{backend="local"} 1`,
		`raccd_fabric_backend_errors_total{backend="local"} 0`,
		"# TYPE raccd_job_phase_seconds histogram",
		`raccd_job_phase_seconds_count{phase="exec"} 1`,
		`raccd_job_phase_seconds_count{phase="queue_wait"} 1`,
		`raccd_job_phase_seconds_bucket{phase="build",le="+Inf"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(text, "engine") {
		t.Error("metrics still expose an execution-engine series")
	}
	// Buckets are cumulative: the series for RaCCD must be non-decreasing
	// and end at the count.
	var last uint64
	var buckets int
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, `raccd_run_latency_seconds_bucket{scheme="RaCCD"`) {
			continue
		}
		buckets++
		var v uint64
		if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &v); err != nil {
			t.Fatalf("bad bucket line %q", line)
		}
		if v < last {
			t.Fatalf("bucket series decreased at %q", line)
		}
		last = v
	}
	if buckets != len(exec.LatencyBuckets)+1 {
		t.Fatalf("%d bucket lines, want %d", buckets, len(exec.LatencyBuckets)+1)
	}
	if last != 1 {
		t.Fatalf("final cumulative bucket = %d, want 1", last)
	}

	// A prefetch-armed run moves the raccd_prefetch_* counters and the
	// /v1/stats mirror; the zero scrape above already carried the series
	// (present-at-zero, so dashboards can rate() them without gaps).
	for _, want := range []string{
		"raccd_prefetch_issued_total 0",
		"raccd_prefetch_useful_total 0",
		"raccd_prefetch_late_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	st2, err := c.SubmitRun(ctx, client.RunRequest{
		Workload: "synth:stencil/seed=7/width=8/depth=8/blocks=8", Scale: 1, System: "RaCCD", DirRatio: 16,
		Core: "ooo", PrefetchDegree: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fin, err := c.Wait(ctx, st2.ID, nil); err != nil || fin.State != "done" {
		t.Fatalf("prefetch run: %v, %+v", err, fin)
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body, _ = io.ReadAll(rec.Body)
	text = string(body)
	issued := scrapeCounter(t, text, "raccd_prefetch_issued_total")
	useful := scrapeCounter(t, text, "raccd_prefetch_useful_total")
	if issued == 0 || useful == 0 {
		t.Fatalf("prefetch counters after prefetch run: issued=%d useful=%d, want both > 0", issued, useful)
	}
	stats, err := c.ServerStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PrefetchIssued != issued || stats.PrefetchUseful != useful {
		t.Fatalf("/v1/stats prefetch mirror %d/%d, /metrics %d/%d",
			stats.PrefetchIssued, stats.PrefetchUseful, issued, useful)
	}
}

// scrapeCounter extracts an unlabeled counter's value from a Prometheus
// text exposition.
func scrapeCounter(t *testing.T, text, name string) uint64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		var v uint64
		if _, err := fmt.Sscanf(strings.TrimPrefix(line, name+" "), "%d", &v); err != nil {
			t.Fatalf("bad counter line %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("counter %s not in exposition", name)
	return 0
}

// progressLines submits a job through submit, waits for it to finish
// and returns its progress lines in stream order.
func progressLines(t *testing.T, c *client.Client, submit func(context.Context) (client.Status, error)) []string {
	t.Helper()
	ctx := context.Background()
	st, err := submit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	fin, err := c.Wait(ctx, st.ID, func(e client.Event) {
		if e.Type != "progress" {
			return
		}
		var p struct {
			Line string `json:"line"`
		}
		if err := json.Unmarshal(e.Data, &p); err != nil {
			t.Errorf("progress payload %s: %v", e.Data, err)
		}
		lines = append(lines, p.Line)
	})
	if err != nil || fin.State != "done" {
		t.Fatalf("%s job: %v, %+v", st.Kind, err, fin)
	}
	return lines
}

// TestSweepProgressMatchesBatch: a sweep is the batch of its matrix
// cells, so on a warm plain daemon both stream the same progress lines —
// cache hits tagged, and each ADR run's line carrying +ADR, so
// `RaCCD 1:1` and `RaCCD+ADR 1:1` stay distinguishable.
func TestSweepProgressMatchesBatch(t *testing.T) {
	_, c := newTestServer(t, Options{})
	sweep := func(ctx context.Context) (client.Status, error) { return c.SubmitSweep(ctx, goldenSweep()) }
	progressLines(t, c, sweep) // cold: fills the store

	m, err := exec.BuildMatrix(goldenSweep())
	if err != nil {
		t.Fatal(err)
	}
	specs, err := fabric.SpecsFromMatrix(m, goldenSweep().Machine)
	if err != nil {
		t.Fatal(err)
	}
	batch := client.BatchRequest{}
	for _, spec := range specs {
		batch.Runs = append(batch.Runs, spec.Request)
	}

	swept := progressLines(t, c, sweep)
	batched := progressLines(t, c, func(ctx context.Context) (client.Status, error) { return c.SubmitBatch(ctx, batch) })
	if strings.Join(swept, "\n") != strings.Join(batched, "\n") {
		t.Fatalf("warm sweep and batch progress differ:\n--- sweep ---\n%s\n--- batch ---\n%s",
			strings.Join(swept, "\n"), strings.Join(batched, "\n"))
	}
	var adr int
	for i, line := range swept {
		if !strings.HasSuffix(line, " (cached)") {
			t.Errorf("warm line %q is not tagged as a cache hit", line)
		}
		if specs[i].Request.ADR != strings.Contains(line, "+ADR") {
			t.Errorf("line %q for run %+v: +ADR tag mismatch", line, specs[i].Request)
		}
		if strings.Contains(line, "+ADR") {
			adr++
		}
	}
	if adr != 4 {
		t.Fatalf("%d lines carry +ADR, want 4 (PT and RaCCD on MD5 and Jacobi)", adr)
	}
}

// batchThrough submits batch through c and returns its progress lines
// and CSV.
func batchThrough(t *testing.T, c *client.Client, batch client.BatchRequest) ([]string, string) {
	t.Helper()
	lines := progressLines(t, c, func(ctx context.Context) (client.Status, error) { return c.SubmitBatch(ctx, batch) })
	jobs, err := c.Jobs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	csv, err := c.Result(context.Background(), jobs[len(jobs)-1].ID)
	if err != nil {
		t.Fatal(err)
	}
	return lines, csv
}

// TestCoordinatorMixedBatchMatchesPlainDaemon: a batch that mixes
// bundled, synth: and trace: runs, two of which share a CSV row key (one
// workload, system, ratio and ADR at two scales) but home on different
// workers, returns through a two-worker coordinator exactly the CSV and
// the progress lines, in order, that a plain daemon returns for it —
// of the two runs that share a row, the later one's. Each worker runs
// its share as one job.
func TestCoordinatorMixedBatchMatchesPlainDaemon(t *testing.T) {
	c, workers, coord := startFabric(t, 2, Options{})
	path := filepath.Join(t.TempDir(), "knn.rtf")
	tr, err := tracefile.Record(workloads.MustGet("KNN", 0.05), tracefile.Fingerprint("KNN@0.05"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tracefile.WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	runs := []client.RunRequest{
		{Workload: "MD5", Scale: 0.05, System: "PT"},
		{Workload: "synth:chain/depth=4/seed=2", Scale: 0.05, System: "RaCCD"},
		{Workload: "trace:" + path, System: "FullCoh"},
		{Workload: "MD5", Scale: 0.05, System: "RaCCD", DirRatio: 16},
		{Workload: "trace:" + path, System: "RaCCD", DirRatio: 16, ADR: true},
		{Workload: "synth:chain/depth=4/seed=2", Scale: 0.1, System: "PT"},
	}
	// Add Jacobi PT 1:1 at the first scale and at the first later scale
	// that homes on the other worker.
	home := func(req client.RunRequest) int {
		t.Helper()
		spec, err := fabric.NewSpec(req)
		if err != nil {
			t.Fatal(err)
		}
		return coord.coord.Pick(spec.Key())
	}
	first := client.RunRequest{Workload: "Jacobi", Scale: 0.05, System: "PT"}
	runs = append(runs[:2], append([]client.RunRequest{first}, runs[2:]...)...)
	for scale := 0.06; ; scale += 0.01 {
		second := client.RunRequest{Workload: "Jacobi", Scale: scale, System: "PT"}
		if home(second) != home(first) {
			runs = append(runs, second)
			break
		}
	}
	batch := client.BatchRequest{Runs: runs}

	gotLines, gotCSV := batchThrough(t, c, batch)
	_, plain := newTestServer(t, Options{})
	wantLines, wantCSV := batchThrough(t, plain, batch)
	if gotCSV != wantCSV {
		t.Fatalf("coordinator CSV differs from a plain daemon's:\n%s\nwant:\n%s", gotCSV, wantCSV)
	}
	if strings.Join(gotLines, "\n") != strings.Join(wantLines, "\n") {
		t.Fatalf("coordinator progress differs from a plain daemon's:\n%s\nwant:\n%s",
			strings.Join(gotLines, "\n"), strings.Join(wantLines, "\n"))
	}
	if strings.Count(gotCSV, "\nJacobi,PT,1,") != 1 || len(gotLines) != len(runs) {
		t.Fatalf("%d progress lines for %d runs; CSV:\n%s", len(gotLines), len(runs), gotCSV)
	}
	for i, ws := range workers {
		if n := ws.Stats().Jobs["done"]; n != 1 {
			t.Fatalf("worker %d ran %d jobs, want 1", i, n)
		}
	}
}

// TestCoordinatorPanickingRunFailsBatch: a coordinator batch in which
// one run panics fails with that run's sim: error as soon as its worker
// reports it, and the other worker's dispatch is cancelled rather than
// awaited: that worker's job is still running when the batch has
// failed, and the cancellation does not count as its error.
func TestCoordinatorPanickingRunFailsBatch(t *testing.T) {
	c, workers, coord := startFabric(t, 2, Options{})
	ctx := context.Background()
	// 3000 valid tasks before the bad one give the other worker's job
	// time to start before the batch fails.
	bad := client.RunRequest{Workload: "trace:" + writeMisannotatedTrace(t, 3000), System: "PT"}
	badSpec, err := fabric.NewSpec(bad)
	if err != nil {
		t.Fatal(err)
	}
	badHome := coord.coord.Pick(badSpec.Key())
	var long client.RunRequest
	for _, ratio := range []int{1, 2, 4, 8, 16, 64, 256} {
		long = client.RunRequest{Workload: "Cholesky", Scale: 3, System: "RaCCD", DirRatio: ratio}
		spec, err := fabric.NewSpec(long)
		if err != nil {
			t.Fatal(err)
		}
		if coord.coord.Pick(spec.Key()) != badHome {
			break
		}
	}
	st, err := c.SubmitBatch(ctx, client.BatchRequest{Runs: []client.RunRequest{long, bad}})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.Wait(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	const want = "stores 0x20000000 outside its declared out/inout ranges"
	if fin.State != "failed" || !strings.Contains(fin.Error, "sim: misannotated/") || !strings.Contains(fin.Error, want) {
		t.Fatalf("batch ended %s (%q), want failed with the run's panic as a sim error", fin.State, fin.Error)
	}
	other := workers[1-badHome]
	if n := other.Stats().Jobs["running"]; n != 1 {
		t.Fatalf("the other worker has %d running jobs once the batch failed, want its long job still running", n)
	}
	sts := coord.coord.BackendStatuses()
	if sts[badHome].Requests != 1 || sts[badHome].Errors != 1 || sts[1-badHome].Requests != 1 || sts[1-badHome].Errors != 0 {
		t.Fatalf("backend counters %+v, want one run each and one error on worker %d only", sts, badHome)
	}
	// Stop the long run instead of draining it.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	other.Shutdown(cancelled)
}
