package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"raccd/client"
	"raccd/internal/resultstore"
	"raccd/internal/service/queue"
)

// apiCounter wraps a daemon's handler and counts the API requests
// (/v1/...) it serves; health probes are not API round trips.
type apiCounter struct {
	h http.Handler
	n atomic.Int64
}

func (c *apiCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/v1/") {
		c.n.Add(1)
	}
	c.h.ServeHTTP(w, r)
}

// startCounted starts a daemon behind an apiCounter and returns the
// server, the counter and the base URL.
func startCounted(t *testing.T, opts Options) (*Server, *apiCounter, string) {
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
	cnt := &apiCounter{h: s.Handler()}
	hs := httptest.NewServer(cnt)
	t.Cleanup(hs.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, cnt, hs.URL
}

// runThrough is one SubmitRun → Wait → Result, the way every serving
// caller drives a run.
func runThrough(t *testing.T, c *client.Client, req client.RunRequest) string {
	t.Helper()
	ctx := context.Background()
	st, err := c.SubmitRun(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.Wait(ctx, st.ID, nil)
	if err != nil || fin.State != "done" || fin.ID != st.ID || fin.ResultURL == "" {
		t.Fatalf("wait: %v, %+v", err, fin)
	}
	csv, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	return csv
}

// TestRunIsThreeRoundTrips: on a plain daemon a run costs exactly its
// submit, its event stream and its result download — Wait takes the
// final status from the terminal event instead of asking for it.
func TestRunIsThreeRoundTrips(t *testing.T) {
	_, cnt, url := startCounted(t, Options{})
	c := client.New(url)
	req := client.RunRequest{Workload: "Jacobi", Scale: 0.05, System: "PT"}
	for _, phase := range []string{"cold", "warm"} {
		before := cnt.n.Load()
		runThrough(t, c, req)
		if got := cnt.n.Load() - before; got != 3 {
			t.Fatalf("%s run made %d API requests, want 3", phase, got)
		}
	}
}

// TestCoordinatorRunIsThreeRoundTripsPerWorker: behind a coordinator, a
// client's run or batch costs the coordinator three API requests, and
// each worker at most one job of three API requests — a run is a batch
// of one, and a batch reaches each worker its runs home on as one job.
func TestCoordinatorRunIsThreeRoundTripsPerWorker(t *testing.T) {
	var urls []string
	var workers []*Server
	var counters []*apiCounter
	for i := 0; i < 2; i++ {
		ws, cnt, url := startCounted(t, Options{})
		urls = append(urls, url)
		workers = append(workers, ws)
		counters = append(counters, cnt)
	}
	_, coordCnt, coordURL := startCounted(t, Options{Workers: urls})
	c := client.New(coordURL)
	ctx := context.Background()

	// through sends one job through the coordinator and returns how many
	// worker jobs it cost, checking every request count on the way.
	through := func(what string, submit func(context.Context) (client.Status, error)) int {
		t.Helper()
		coordBefore := coordCnt.n.Load()
		var reqsBefore [2]int64
		var jobsBefore [2]int
		for i, ws := range workers {
			reqsBefore[i], jobsBefore[i] = counters[i].n.Load(), ws.Stats().Jobs["done"]
		}
		st, err := submit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if fin, err := c.Wait(ctx, st.ID, nil); err != nil || fin.State != "done" {
			t.Fatalf("%s: %v, %+v", what, err, fin)
		}
		if _, err := c.Result(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
		if got := coordCnt.n.Load() - coordBefore; got != 3 {
			t.Fatalf("%s: coordinator served %d API requests, want 3", what, got)
		}
		var jobs int
		for i, ws := range workers {
			n := ws.Stats().Jobs["done"] - jobsBefore[i]
			if n > 1 {
				t.Fatalf("%s: worker %d ran %d jobs, want at most 1", what, i, n)
			}
			if got := counters[i].n.Load() - reqsBefore[i]; got != int64(3*n) {
				t.Fatalf("%s: worker %d served %d API requests for %d jobs, want %d", what, i, got, n, 3*n)
			}
			jobs += n
		}
		return jobs
	}

	runs := []client.RunRequest{
		{Workload: "Jacobi", Scale: 0.05, System: "PT"},
		{Workload: "Jacobi", Scale: 0.05, System: "RaCCD"},
		{Workload: "MD5", Scale: 0.05, System: "FullCoh"},
		{Workload: "MD5", Scale: 0.05, System: "RaCCD", DirRatio: 16},
	}
	for _, req := range runs {
		if jobs := through("run", func(ctx context.Context) (client.Status, error) { return c.SubmitRun(ctx, req) }); jobs != 1 {
			t.Fatalf("a run cost %d worker jobs, want 1", jobs)
		}
	}
	// The golden sweep's 16 runs home on both workers.
	batch := client.BatchRequest{}
	for _, wl := range []string{"MD5", "Jacobi"} {
		for _, sys := range []string{"FullCoh", "PT", "RaCCD"} {
			for _, ratio := range []int{1, 16} {
				batch.Runs = append(batch.Runs, client.RunRequest{Workload: wl, Scale: 0.08, System: sys, DirRatio: ratio})
			}
		}
		for _, sys := range []string{"PT", "RaCCD"} {
			batch.Runs = append(batch.Runs, client.RunRequest{Workload: wl, Scale: 0.08, System: sys, ADR: true})
		}
	}
	if jobs := through("batch", func(ctx context.Context) (client.Status, error) { return c.SubmitBatch(ctx, batch) }); jobs != 2 {
		t.Fatalf("a %d-run batch cost %d worker jobs, want one on each worker", len(batch.Runs), jobs)
	}

	var total uint64
	for _, ws := range workers {
		total += ws.Stats().RunsCompleted
	}
	if want := uint64(len(runs) + len(batch.Runs)); total != want {
		t.Fatalf("workers completed %d runs, want %d", total, want)
	}
}

// TestWaitReturnsErrorStatusFromStream: failed and canceled jobs report
// their final status in the terminal event, so Wait needs only the
// event stream to learn the outcome.
func TestWaitReturnsErrorStatusFromStream(t *testing.T) {
	s, cnt, url := startCounted(t, Options{})
	c := client.New(url)
	for _, tc := range []struct {
		err       error
		state     string
		errSubstr string
	}{
		{errors.New("boom: bad input"), "failed", "boom: bad input"},
		{context.Canceled, "canceled", ""},
	} {
		j := queue.NewJob(s.q.NewID(), "run", "", 1)
		if err := s.admit(j, func(*queue.Job) (string, error) { return "", tc.err }); err != nil {
			t.Fatal(err)
		}
		before := cnt.n.Load()
		fin, err := c.Wait(context.Background(), j.ID(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := cnt.n.Load() - before; got != 1 {
			t.Fatalf("%s: Wait made %d API requests, want only the event stream", tc.state, got)
		}
		if fin.State != tc.state || fin.ID != j.ID() || !strings.Contains(fin.Error, tc.errSubstr) || fin.Finished.IsZero() {
			t.Fatalf("%s: Wait returned %+v", tc.state, fin)
		}
	}
}

// TestResumeReplaysTerminalStatus: resuming a finished job's stream just
// before its last event replays the terminal event, whose status is
// byte-for-byte the JSON GET /v1/jobs/{id} serves.
func TestResumeReplaysTerminalStatus(t *testing.T) {
	_, _, url := startCounted(t, Options{})
	c := client.New(url)
	ctx := context.Background()
	st, err := c.SubmitRun(ctx, client.RunRequest{Workload: "Jacobi", Scale: 0.05, System: "RaCCD"})
	if err != nil {
		t.Fatal(err)
	}
	last := -1
	if _, err := c.Wait(ctx, st.ID, func(e client.Event) { last = e.ID }); err != nil {
		t.Fatal(err)
	}

	var tail []client.Event
	if err := c.Events(ctx, st.ID, last-1, func(e client.Event) error {
		tail = append(tail, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(tail) != 1 || tail[0].Type != "done" || tail[0].ID != last {
		t.Fatalf("resume after %d replayed %+v, want the done event", last-1, tail)
	}
	var payload struct {
		ResultURL string          `json:"result_url"`
		Status    json.RawMessage `json:"status"`
	}
	if err := json.Unmarshal(tail[0].Data, &payload); err != nil {
		t.Fatal(err)
	}
	if payload.ResultURL != "/v1/jobs/"+st.ID+"/result" {
		t.Fatalf("done event lost its result_url: %s", tail[0].Data)
	}

	resp, err := http.Get(url + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var polled bytes.Buffer
	if err := json.Compact(&polled, body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload.Status, polled.Bytes()) {
		t.Fatalf("terminal event status differs from GET /v1/jobs/{id}:\nevent %s\nGET   %s", payload.Status, polled.Bytes())
	}
}

// TestSubmitBodyBounds: submission bodies are read through a limit
// derived from the runs an endpoint can carry — one for /v1/runs,
// MaxSweepRuns for sweeps and batches. An oversized body gets 413 and a
// malformed one 400, on every submit endpoint, never a 5xx.
func TestSubmitBodyBounds(t *testing.T) {
	_, _, url := startCounted(t, Options{MaxSweepRuns: 8})
	oversized := `{"workload":"` + strings.Repeat("a", 16*maxBodyPerRun) + `"}`
	for _, path := range []string{"/v1/runs", "/v1/sweeps", "/v1/batch"} {
		for _, tc := range []struct {
			name, body string
			want       int
		}{
			{"oversized", oversized, http.StatusRequestEntityTooLarge},
			{"malformed", "{not json", http.StatusBadRequest},
			{"truncated", `{"runs":[{"workload":`, http.StatusBadRequest},
			{"mistyped", `{"runs":7,"workloads":7,"scale":"x"}`, http.StatusBadRequest},
		} {
			resp, err := http.Post(url+path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			var e struct {
				Error string `json:"error"`
			}
			err = json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if resp.StatusCode != tc.want || err != nil || e.Error == "" {
				t.Fatalf("%s %s: status %d (error %q, decode %v), want %d", path, tc.name, resp.StatusCode, e.Error, err, tc.want)
			}
		}
	}

	run := client.RunRequest{Workload: "Jacobi", Scale: 0.05, System: "PT", Scheduler: "fifo", Machine: "paper16"}
	post := func(path string, body []byte) int {
		t.Helper()
		resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// A single run is held to one run's budget, not the sweep limit: a
	// run padded to a few KiB gets 413 although a batch may be that big.
	single, err := json.Marshal(run)
	if err != nil {
		t.Fatal(err)
	}
	padded := append(bytes.Repeat([]byte(" "), 4*maxBodyPerRun), single...)
	if code := post("/v1/runs", padded); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("run padded to %d bytes: status %d, want 413", len(padded), code)
	}

	// A batch at the run limit, padded past that size, still fits.
	runs := make([]client.RunRequest, 8)
	for i := range runs {
		runs[i] = run
	}
	body, err := json.Marshal(client.BatchRequest{Runs: runs})
	if err != nil {
		t.Fatal(err)
	}
	body = append(bytes.Repeat([]byte(" "), 6*maxBodyPerRun), body...)
	if code := post("/v1/batch", body); code != http.StatusAccepted {
		t.Fatalf("batch of %d bytes at the run limit: status %d, want 202", len(body), code)
	}
}

// TestRetiredEngineFieldsIgnored: requests from older clients may still
// carry the removed engine/shards fields. They decode and are ignored —
// results never depended on them — so such runs and sweeps complete.
func TestRetiredEngineFieldsIgnored(t *testing.T) {
	_, _, url := startCounted(t, Options{})
	c := client.New(url)
	for _, tc := range []struct{ path, body string }{
		{"/v1/runs", `{"workload":"MD5","scale":0.05,"system":"RaCCD","engine":"epoch","shards":2}`},
		{"/v1/sweeps", `{"workloads":["MD5"],"systems":["PT"],"ratios":[1],"scale":0.05,"engine":"seq","shards":0}`},
	} {
		path := tc.path
		resp, err := http.Post(url+path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var st client.Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted || err != nil {
			t.Fatalf("%s: status %d (decode %v), want 202", path, resp.StatusCode, err)
		}
		if fin, err := c.Wait(context.Background(), st.ID, nil); err != nil || fin.State != "done" {
			t.Fatalf("%s: %v, %+v", path, err, fin)
		}
	}
}
