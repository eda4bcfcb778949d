package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"raccd/client"
	"raccd/internal/resultstore"
	"raccd/internal/service/queue"
)

// warmRun is the single run the retention tests repeat: after its first
// simulation every submission is a result-store hit.
var warmRun = client.RunRequest{Workload: "MD5", Scale: 0.05, System: "PT"}

// warmBatch is the batch the retention test repeats: every run of three
// small paper sweeps, 69 runs that are store hits after the first batch.
var warmBatch = func() client.BatchRequest {
	var b client.BatchRequest
	for _, wl := range []string{"MD5", "Jacobi", "Histo"} {
		for _, sys := range []string{"FullCoh", "PT", "RaCCD"} {
			for _, ratio := range []int{1, 2, 4, 8, 16, 64, 256} {
				b.Runs = append(b.Runs, client.RunRequest{Workload: wl, Scale: 0.05, System: sys, DirRatio: ratio})
			}
			if sys != "FullCoh" {
				b.Runs = append(b.Runs, client.RunRequest{Workload: wl, Scale: 0.05, System: sys, ADR: true})
			}
		}
	}
	return b
}()

// serve sends one request straight to h and returns the recorded
// response.
func serve(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// runWarm submits warmRun through h and follows its event stream to the
// end, so the job has finished when it returns.
func runWarm(t *testing.T, h http.Handler) string {
	t.Helper()
	return submitWarm(t, h, "/v1/runs", warmRun)
}

// submitWarm submits req to path through h and follows the job's event
// stream to the end, by when the job's place in the queue is free.
func submitWarm(t *testing.T, h http.Handler, path string, req any) string {
	t.Helper()
	body, _ := json.Marshal(req)
	rec := serve(h, http.MethodPost, path, string(body))
	var st client.Status
	if rec.Code != http.StatusAccepted || json.Unmarshal(rec.Body.Bytes(), &st) != nil {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body)
	}
	if ev := serve(h, http.MethodGet, "/v1/jobs/"+st.ID+"/events", ""); !strings.Contains(ev.Body.String(), "event: done") {
		t.Fatalf("job %s did not finish done:\n%s", st.ID, ev.Body)
	}
	return st.ID
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRetentionBoundsHeap is the soak test of the job window: a daemon
// that has served 50·W warm runs holds no more live heap than one that
// has served 10·W (W the runs of the finished jobs it keeps), while its
// counters still count every job and run. The window counts runs, so
// this holds for one-run jobs and for batch jobs alike.
func TestRetentionBoundsHeap(t *testing.T) {
	for _, tc := range []struct {
		name  string
		depth int
		path  string
		req   any
		runs  int
	}{
		{"runs", 2, "/v1/runs", warmRun, 1},
		{"batches", 8, "/v1/batch", warmBatch, len(warmBatch.Runs)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := queue.RetainedPerSlot * tc.depth
			s, _ := newTestServer(t, Options{QueueDepth: tc.depth})
			h := s.Handler()
			jobs := 0
			serveRuns := func(runs int) {
				for ; jobs*tc.runs < runs; jobs++ {
					submitWarm(t, h, tc.path, tc.req)
				}
			}
			serveRuns(10 * w)
			at10 := liveHeap()
			jobs10 := jobs
			serveRuns(50 * w)
			at50 := liveHeap()
			const bound = 1 << 20
			t.Logf("live heap after %d jobs: %d B; after %d: %d B", jobs10, at10, jobs, at50)
			if at50 > at10+bound {
				t.Errorf("live heap grew from %d B after %d jobs to %d B after %d (+%d B, bound %d B)",
					at10, jobs10, at50, jobs, at50-at10, bound)
			}

			stats := s.Stats()
			if stats.Jobs["done"] != jobs || len(stats.Jobs) != 1 || stats.RunsCompleted != uint64(jobs*tc.runs) || stats.SimsRun != uint64(tc.runs) {
				t.Errorf("stats = jobs %v, %d runs completed, %d simulated; want %d done jobs, %d runs, %d simulated",
					stats.Jobs, stats.RunsCompleted, stats.SimsRun, jobs, jobs*tc.runs, tc.runs)
			}
			if n := len(s.q.Jobs()); n > max(w/tc.runs, 1) {
				t.Errorf("the queue keeps %d jobs, above its window of %d runs", n, w)
			}
		})
	}
}

// TestLongJobOutlivesWindow: the window evicts in finish order, so a job
// submitted first that finishes after more than W short jobs is the
// newest finished job, and its status, events and result are all there
// when it finishes; the first short job has expired by then.
func TestLongJobOutlivesWindow(t *testing.T) {
	const depth = 2
	w := queue.RetainedPerSlot * depth
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Store: store, QueueDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	// The long job holds one of the two places, so a short job can find
	// the other still held by its finished predecessor: retry 503s.
	c := client.New(hs.URL, client.WithRetry(20, time.Millisecond))
	ctx := context.Background()

	release := make(chan struct{})
	long := queue.NewJob(s.q.NewID(), "batch", "", 1)
	if err := s.admit(long, func(j *queue.Job) (string, error) {
		<-release
		j.Progress("long line")
		return "long,csv\n", nil
	}); err != nil {
		t.Fatal(err)
	}
	var short []string
	for i := 0; i < w+4; i++ {
		st, err := c.SubmitRun(ctx, warmRun)
		if err != nil {
			t.Fatal(err)
		}
		if fin, err := c.Wait(ctx, st.ID, nil); err != nil || fin.State != "done" {
			t.Fatalf("short job %d: %v, %+v", i, err, fin)
		}
		short = append(short, st.ID)
	}
	close(release)

	fin, err := c.Wait(ctx, long.ID(), nil)
	if err != nil || fin.State != "done" || fin.RunsDone != 1 {
		t.Fatalf("long job: %v, %+v", err, fin)
	}
	if st, err := c.Job(ctx, long.ID()); err != nil || st.State != "done" {
		t.Fatalf("long job status: %v, %+v", err, st)
	}
	var types []string
	if err := c.Events(ctx, long.ID(), -1, func(e client.Event) error {
		types = append(types, e.Type)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(types, ","); got != "status,status,progress,status,done" {
		t.Fatalf("long job events = %s", got)
	}
	if csv, err := c.Result(ctx, long.ID()); err != nil || csv != "long,csv\n" {
		t.Fatalf("long job result = %q, %v", csv, err)
	}
	if _, err := c.Job(ctx, short[0]); !errors.Is(err, client.ErrExpired) {
		t.Fatalf("first short job: err = %v, want it expired", err)
	}
	if _, err := c.Job(ctx, short[len(short)-1]); err != nil {
		t.Fatalf("last short job: %v", err)
	}
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != w || jobs[0].ID != long.ID() {
		t.Fatalf("job list holds %d jobs starting at %s, want the window of %d starting at %s",
			len(jobs), jobs[0].ID, w, long.ID())
	}
}

// TestExpiredJobAnswers404: every per-job endpoint answers an evicted id
// with 404 and the expired marker, a never-issued id keeps the plain
// "unknown job" 404, and client.Wait's fallback poll reports the expiry
// as client.ErrExpired.
func TestExpiredJobAnswers404(t *testing.T) {
	const depth = 1
	w := queue.RetainedPerSlot * depth
	s, c := newTestServer(t, Options{QueueDepth: depth})
	h := s.Handler()
	first := runWarm(t, h)
	for i := 0; i < w; i++ {
		runWarm(t, h)
	}
	for _, path := range []string{"/v1/jobs/" + first, "/v1/jobs/" + first + "/events", "/v1/jobs/" + first + "/result"} {
		rec := serve(h, http.MethodGet, path, "")
		var body struct {
			Error   string `json:"error"`
			Expired bool   `json:"expired"`
		}
		if rec.Code != http.StatusNotFound || json.Unmarshal(rec.Body.Bytes(), &body) != nil ||
			!body.Expired || !strings.Contains(body.Error, "expired") || !strings.Contains(body.Error, "resubmit") {
			t.Errorf("GET %s = %d %s, want 404 with the expired marker", path, rec.Code, rec.Body)
		}
	}
	for _, id := range []string{"j999999", "j0000001", "nope"} {
		for _, path := range []string{"/v1/jobs/" + id, "/v1/jobs/" + id + "/events", "/v1/jobs/" + id + "/result"} {
			rec := serve(h, http.MethodGet, path, "")
			want := `{` + "\n" + `  "error": "unknown job \"` + id + `\""` + "\n}\n"
			if rec.Code != http.StatusNotFound || rec.Body.String() != want {
				t.Errorf("GET %s = %d %s, want the unknown-job 404", path, rec.Code, rec.Body)
			}
		}
	}

	ctx := context.Background()
	if _, err := c.Wait(ctx, first, nil); !errors.Is(err, client.ErrExpired) {
		t.Errorf("Wait on an expired job: err = %v, want client.ErrExpired", err)
	}
	if _, err := c.Result(ctx, first); !errors.Is(err, client.ErrExpired) {
		t.Errorf("Result of an expired job: err = %v, want client.ErrExpired", err)
	}
	if _, err := c.Job(ctx, "j999999"); err == nil || errors.Is(err, client.ErrExpired) {
		t.Errorf("never-issued job: err = %v, want a plain 404", err)
	}
	// Resubmitting the expired run is a store hit.
	before := s.Stats().SimsRun
	st, err := c.SubmitRun(ctx, warmRun)
	if err != nil {
		t.Fatal(err)
	}
	if fin, err := c.Wait(ctx, st.ID, nil); err != nil || fin.State != "done" {
		t.Fatalf("resubmitted run: %v, %+v", err, fin)
	}
	if after := s.Stats().SimsRun; after != before {
		t.Errorf("resubmitting the expired run simulated (%d → %d sims)", before, after)
	}
}
