package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"raccd/client"
	"raccd/internal/report"
	"raccd/internal/resultstore"
	"raccd/internal/service/queue"
)

// newTestServer starts a service over a fresh store and exposes it via
// httptest, returning a ready client.
func newTestServer(t *testing.T, opts Options) (*Server, *client.Client) {
	t.Helper()
	if opts.Store == nil {
		store, err := resultstore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		opts.Store = store
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, client.New(hs.URL)
}

// goldenSweep is the request whose CSV the seed golden file pins — the
// same matrix as report.smallMatrix.
func goldenSweep() client.SweepRequest {
	return client.SweepRequest{
		Workloads: []string{"MD5", "Jacobi"},
		Systems:   []string{"FullCoh", "PT", "RaCCD"},
		Ratios:    []int{1, 16},
		ADR:       true,
		Scale:     0.08,
	}
}

// TestSweepOverHTTPMatchesGolden is the end-to-end equivalence pin: a
// sweep submitted over HTTP must return the golden sweep CSV
// byte-identically — cold (every run simulated) and warm (every run
// served from the result store).
func TestSweepOverHTTPMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("../report/testdata/golden_small_sweep.csv")
	if err != nil {
		t.Fatal(err)
	}
	s, c := newTestServer(t, Options{})
	ctx := context.Background()

	for _, phase := range []string{"cold", "warm"} {
		st, err := c.SubmitSweep(ctx, goldenSweep())
		if err != nil {
			t.Fatalf("%s: submit: %v", phase, err)
		}
		if st.State != "queued" && st.State != "running" && st.State != "done" {
			t.Fatalf("%s: submit state = %q", phase, st.State)
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
		if progress != st.RunsTotal || fin.RunsDone != st.RunsTotal {
			t.Fatalf("%s: %d progress events, runs_done %d, want %d", phase, progress, fin.RunsDone, st.RunsTotal)
		}
		got, err := c.Result(ctx, st.ID)
		if err != nil {
			t.Fatalf("%s: result: %v", phase, err)
		}
		if got != string(want) {
			t.Fatalf("%s: sweep-over-HTTP CSV diverged from the seed golden", phase)
		}
	}

	st := s.opts.Store.Stats()
	if st.Misses == 0 {
		t.Fatal("cold sweep simulated nothing")
	}
	if st.Hits != st.Misses {
		t.Fatalf("warm sweep should recall every run: hits=%d misses=%d", st.Hits, st.Misses)
	}
	snap := s.Stats()
	if snap.SimsRun != st.Misses || snap.CacheHits != st.Hits {
		t.Fatalf("stats snapshot disagrees with store: %+v vs %+v", snap, st)
	}
}

// TestSweepCacheStoreHitByServedSweep: a store `sweep -cache` filled
// (report.Matrix with Cache set) serves the same sweeps submitted over
// HTTP without one new simulation — the offline matrix and the served
// run list derive identical cache keys, for the simple core and for the
// OoO core with a prefetcher — and the simple-core CSV is the golden one.
func TestSweepCacheStoreHitByServedSweep(t *testing.T) {
	want, err := os.ReadFile("../report/testdata/golden_small_sweep.csv")
	if err != nil {
		t.Fatal(err)
	}
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ooo := goldenSweep()
	ooo.Core, ooo.PrefetchDegree = "ooo", 2
	reqs := []client.SweepRequest{goldenSweep(), ooo}
	for _, req := range reqs {
		m := report.Matrix{
			Workloads:      req.Workloads,
			Systems:        report.Systems,
			Ratios:         req.Ratios,
			ADR:            req.ADR,
			Scale:          req.Scale,
			Validate:       true,
			Cache:          store,
			Core:           req.Core,
			PrefetchDegree: req.PrefetchDegree,
		}
		if _, err := m.Run(); err != nil {
			t.Fatalf("core %q: offline fill: %v", req.Core, err)
		}
	}
	filled := store.Stats().Misses
	if filled == 0 {
		t.Fatal("offline fill simulated nothing")
	}

	_, c := newTestServer(t, Options{Store: store})
	ctx := context.Background()
	for _, req := range reqs {
		st, err := c.SubmitSweep(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if fin, err := c.Wait(ctx, st.ID, nil); err != nil || fin.State != "done" {
			t.Fatalf("core %q: %v, %+v", req.Core, err, fin)
		}
		got, err := c.Result(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if req.Core == "" && got != string(want) {
			t.Fatal("served sweep CSV diverged from the seed golden")
		}
	}
	if misses := store.Stats().Misses - filled; misses != 0 {
		t.Fatalf("served sweeps simulated %d runs the offline fill had stored", misses)
	}
}

// TestConcurrentSameFingerprint hammers N concurrent submits of an
// identical run: exactly one simulation must execute, every other request
// is a cache hit (disk or coalesced in-flight). Run under -race this also
// exercises the store's single-flight and the job event fan-out.
func TestConcurrentSameFingerprint(t *testing.T) {
	s, c := newTestServer(t, Options{})
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
	st := s.opts.Store.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 simulation for %d submits", st.Misses, submits)
	}
	if st.Hits+st.Coalesced != submits-1 {
		t.Fatalf("hits+coalesced = %d, want %d cache hits", st.Hits+st.Coalesced, submits-1)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, c := newTestServer(t, Options{MaxSweepRuns: 10})
	ctx := context.Background()

	cases := []struct {
		name string
		do   func() error
	}{
		{"unknown system", func() error {
			_, err := c.SubmitRun(ctx, client.RunRequest{Workload: "Jacobi", System: "MESI"})
			return err
		}},
		{"unknown workload", func() error {
			_, err := c.SubmitRun(ctx, client.RunRequest{Workload: "NoSuchBench", System: "PT"})
			return err
		}},
		{"negative scale", func() error {
			_, err := c.SubmitRun(ctx, client.RunRequest{Workload: "Jacobi", System: "PT", Scale: -1})
			return err
		}},
		{"bad synth spec", func() error {
			_, err := c.SubmitRun(ctx, client.RunRequest{Workload: "synth:nosuchpreset", System: "PT"})
			return err
		}},
		{"missing trace file", func() error {
			_, err := c.SubmitRun(ctx, client.RunRequest{Workload: "trace:/does/not/exist.rtf", System: "PT"})
			return err
		}},
		{"bad scheduler", func() error {
			_, err := c.SubmitRun(ctx, client.RunRequest{Workload: "Jacobi", System: "PT", Scheduler: "random"})
			return err
		}},
		{"bad dir ratio", func() error {
			_, err := c.SubmitRun(ctx, client.RunRequest{Workload: "Jacobi", System: "PT", DirRatio: 3})
			return err
		}},
		{"ADR on FullCoh", func() error {
			_, err := c.SubmitRun(ctx, client.RunRequest{Workload: "Jacobi", System: "FullCoh", ADR: true})
			return err
		}},
		{"bad contiguity", func() error {
			_, err := c.SubmitRun(ctx, client.RunRequest{Workload: "Jacobi", System: "PT", Contiguity: 1.5})
			return err
		}},
		{"negative ncrt entries", func() error {
			// Regression: this used to pass Check and panic inside a
			// worker goroutine, killing the daemon.
			_, err := c.SubmitRun(ctx, client.RunRequest{Workload: "Jacobi", System: "RaCCD", NCRTEntries: -1})
			return err
		}},
		{"oversized sweep", func() error {
			_, err := c.SubmitSweep(ctx, goldenSweep()) // 14 runs > MaxSweepRuns 10
			return err
		}},
		{"sweep with bad system", func() error {
			_, err := c.SubmitSweep(ctx, client.SweepRequest{Systems: []string{"MOESI"}, Scale: 0.05})
			return err
		}},
	}
	for _, tc := range cases {
		err := tc.do()
		apiErr, ok := err.(*client.APIError)
		if !ok {
			t.Fatalf("%s: err = %v, want *APIError", tc.name, err)
		}
		if apiErr.StatusCode != 400 {
			t.Errorf("%s: status %d, want 400", tc.name, apiErr.StatusCode)
		}
		if apiErr.Message == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}
}

func TestQueueFullRejects(t *testing.T) {
	s, c := newTestServer(t, Options{QueueDepth: 1})

	// One unfinished job fills the queue: a submission over HTTP bounces.
	release := make(chan struct{})
	defer close(release)
	blocker := queue.NewJob(s.q.NewID(), "run", "", 1)
	if err := s.admit(blocker, func(*queue.Job) (string, error) { <-release; return "", nil }); err != nil {
		t.Fatal(err)
	}
	_, err := c.SubmitRun(context.Background(), client.RunRequest{Workload: "MD5", Scale: 0.05, System: "PT"})
	if apiErr, ok := err.(*client.APIError); !ok || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit err = %v, want 503", err)
	}
}

// TestAdmissionCountsUnfinishedJobs: QueueDepth bounds the jobs accepted
// and not yet finished — a started job still holds its place until its
// body returns.
func TestAdmissionCountsUnfinishedJobs(t *testing.T) {
	s, _ := newTestServer(t, Options{QueueDepth: 1})
	noop := func(*queue.Job) (string, error) { return "", nil }

	started := make(chan struct{})
	release := make(chan struct{})
	blocker := queue.NewJob(s.q.NewID(), "run", "", 1)
	if err := s.admit(blocker, func(*queue.Job) (string, error) {
		close(started)
		<-release
		return "", nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := s.admit(queue.NewJob(s.q.NewID(), "run", "", 1), noop); err != queue.ErrFull {
		t.Errorf("submit beside a running job: err = %v, want queue.ErrFull", err)
	}
	close(release)
	s.q.Wait()
	if err := s.admit(queue.NewJob(s.q.NewID(), "run", "", 1), noop); err != nil {
		t.Fatalf("submit after the job finished: %v", err)
	}
}

// TestNoJobWaitsForAnotherJob: every admitted job starts at once, so
// jobs that each wait for all the others to start all finish.
func TestNoJobWaitsForAnotherJob(t *testing.T) {
	s, c := newTestServer(t, Options{})
	const n = 4
	var started sync.WaitGroup
	started.Add(n)
	all := make(chan struct{})
	go func() {
		started.Wait()
		close(all)
	}()
	jobs := make([]*queue.Job, n)
	for i := range jobs {
		jobs[i] = queue.NewJob(s.q.NewID(), "run", "", 1)
		if err := s.admit(jobs[i], func(*queue.Job) (string, error) {
			started.Done()
			select {
			case <-all:
				return "x\n", nil
			case <-time.After(10 * time.Second):
				return "", errors.New("not every job started")
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, j := range jobs {
		fin, err := c.Wait(ctx, j.ID(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if fin.State != "done" {
			t.Fatalf("job %s = %s (%s), want done", fin.ID, fin.State, fin.Error)
		}
	}
}

// TestNoHeadOfLineWait: a run submitted behind jobs that are still
// executing starts at once and takes a free in-flight slot.
func TestNoHeadOfLineWait(t *testing.T) {
	s, c := newTestServer(t, Options{InFlight: 4})
	release := make(chan struct{})
	defer close(release)
	for i := 0; i < 2; i++ {
		started := make(chan struct{})
		j := queue.NewJob(s.q.NewID(), "batch", "", 1)
		if err := s.admit(j, func(*queue.Job) (string, error) {
			close(started)
			<-release
			return "", nil
		}); err != nil {
			t.Fatal(err)
		}
		<-started
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := c.SubmitRun(ctx, client.RunRequest{Workload: "MD5", Scale: 0.05, System: "RaCCD"})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.Wait(ctx, st.ID, nil)
	if err != nil {
		j, _ := s.q.Get(st.ID)
		t.Fatalf("run behind two executing jobs: %v (still %s)", err, j.Status().State)
	}
	if fin.State != "done" {
		t.Fatalf("run finished %q (%s)", fin.State, fin.Error)
	}
}

// TestShutdownDrains proves graceful shutdown: accepted jobs finish and
// later submissions bounce.
func TestShutdownDrains(t *testing.T) {
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Store: store, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}

	started := make(chan struct{})
	release := make(chan struct{})
	inflight := queue.NewJob("j-inflight", "run", "", 1)
	if err := s.admit(inflight, func(*queue.Job) (string, error) {
		close(started)
		<-release
		return "done,csv\n", nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	queued := queue.NewJob("j-queued", "run", "", 1)
	if err := s.admit(queued, func(*queue.Job) (string, error) { return "", nil }); err != nil {
		t.Fatal(err)
	}

	// Release the in-flight job shortly after Shutdown begins draining.
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}

	if csv, state, _ := inflight.Result(); state != StateDone || csv == "" {
		t.Fatalf("in-flight job = %q after drain, want done", state)
	}
	if _, state, _ := queued.Result(); state != StateDone {
		// The queued job was already accepted, so the drain runs it too.
		t.Fatalf("queued job = %q after drain, want done (accepted work is honored)", state)
	}
	if err := s.q.Submit(queue.NewJob("j-late", "run", "", 1)); err != queue.ErrClosed {
		t.Fatalf("post-shutdown submit err = %v, want queue.ErrClosed", err)
	}
}

// TestSSEResume checks that ?after=<id> replays only the tail and that
// event ids are dense.
func TestSSEResume(t *testing.T) {
	_, c := newTestServer(t, Options{})
	ctx := context.Background()
	st, err := c.SubmitRun(ctx, client.RunRequest{Workload: "Jacobi", Scale: 0.05, System: "PT"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.ID, nil); err != nil {
		t.Fatal(err)
	}

	var all []client.Event
	if err := c.Events(ctx, st.ID, -1, func(e client.Event) error {
		all = append(all, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(all) < 4 { // queued, running, progress, done(+status)
		t.Fatalf("only %d events for a completed run", len(all))
	}
	for i, e := range all {
		if e.ID != i {
			t.Fatalf("event %d has id %d, want dense ids", i, e.ID)
		}
	}
	types := make([]string, len(all))
	for i, e := range all {
		types[i] = e.Type
	}
	if all[len(all)-1].Type != "done" {
		t.Fatalf("last event is %q (sequence %v), want done", all[len(all)-1].Type, types)
	}
	if !strings.Contains(strings.Join(types, ","), "progress") {
		t.Fatalf("no progress event in %v", types)
	}

	// Resume after the second event: only the tail replays.
	var tail []client.Event
	if err := c.Events(ctx, st.ID, 1, func(e client.Event) error {
		tail = append(tail, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(tail) != len(all)-2 || tail[0].ID != 2 {
		t.Fatalf("resume after id 1 returned %d events starting at %d, want %d starting at 2",
			len(tail), tail[0].ID, len(all)-2)
	}
}

func TestHealthzAndStats(t *testing.T) {
	_, c := newTestServer(t, Options{})
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := c.SubmitRun(ctx, client.RunRequest{Workload: "MD5", Scale: 0.05, System: "RaCCD"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.ID, nil); err != nil {
		t.Fatal(err)
	}
	stats, err := c.ServerStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SimsRun != 1 || stats.RunsCompleted != 1 || stats.Jobs["done"] != 1 {
		t.Fatalf("stats = %+v, want 1 sim / 1 run / 1 done job", stats)
	}
	if stats.UptimeSeconds <= 0 {
		t.Fatal("uptime not reported")
	}

	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != st.ID {
		t.Fatalf("job list = %+v", jobs)
	}

	// The single-run result is valid CSV for the report tooling.
	csv, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv, "workload,") || !strings.Contains(csv, "MD5,RaCCD,1,") {
		t.Fatalf("unexpected single-run CSV:\n%s", csv)
	}
}

func TestResultNotReady(t *testing.T) {
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Store: store, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := client.New(hs.URL)
	ctx := context.Background()

	release := make(chan struct{})
	blocker := queue.NewJob(s.q.NewID(), "run", "", 1)
	if err := s.admit(blocker, func(*queue.Job) (string, error) { <-release; return "x\n", nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Result(ctx, blocker.ID()); err == nil {
		t.Fatal("result of unfinished job did not error")
	} else if apiErr, ok := err.(*client.APIError); !ok || apiErr.StatusCode != 409 {
		t.Fatalf("err = %v, want 409", err)
	}
	if _, err := c.Result(ctx, "j999999"); err == nil {
		t.Fatal("unknown job did not 404")
	} else if apiErr, ok := err.(*client.APIError); !ok || apiErr.StatusCode != 404 {
		t.Fatalf("err = %v, want 404", err)
	}
	close(release)
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.Shutdown(sctx)
}

// TestJSONDecodeError pins the 400 (with a JSON error body) on malformed
// request bodies.
func TestJSONDecodeError(t *testing.T) {
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	for _, path := range []string{"/v1/runs", "/v1/sweeps"} {
		resp, err := http.Post(hs.URL+path, "application/json", strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 400 {
			t.Fatalf("%s: status = %d, want 400", path, resp.StatusCode)
		}
		var e struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil || e.Error == "" {
			t.Fatalf("%s: error body not JSON: %v %q", path, err, e.Error)
		}
	}
}
