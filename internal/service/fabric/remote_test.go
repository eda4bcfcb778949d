package fabric_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"raccd/internal/report"
	"raccd/internal/resultstore"
	"raccd/internal/service"
	"raccd/internal/service/fabric"
)

// startWorker starts a worker daemon with opts and a fresh store, shut
// down when the test ends, for a test to serve behind its own proxy.
func startWorker(t *testing.T, opts service.Options) *service.Server {
	t.Helper()
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = store
	ws, err := service.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		ws.Shutdown(ctx)
	})
	return ws
}

// TestCoordinatorRejectsMalformedWorkerCSV: a worker whose result is not
// a report CSV, or lacks a run's row, fails the job with an error naming
// the worker instead of returning a result.
func TestCoordinatorRejectsMalformedWorkerCSV(t *testing.T) {
	header := strings.SplitN(report.NewSet(nil).CSV(), "\n", 2)[0]
	specs := expirySpecs(t)
	for _, tc := range []struct{ name, csv, want string }{
		{"garbage", "this is not a report CSV\n", "missing CSV header"},
		{"missing rows", header + "\n", "results missing run 0 (MD5/PT 1:1)"},
	} {
		worker := startWorker(t, service.Options{}).Handler()
		proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/result") {
				fmt.Fprint(w, tc.csv)
				return
			}
			worker.ServeHTTP(w, r)
		}))
		t.Cleanup(proxy.Close)
		coord, err := fabric.NewCoordinator([]fabric.Backend{fabric.NewRemote(proxy.URL)})
		if err != nil {
			t.Fatal(err)
		}
		_, err = coord.Execute(context.Background(), specs, nil)
		if err == nil || !strings.Contains(err.Error(), "worker "+proxy.URL) || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want %q from worker %s", tc.name, err, tc.want, proxy.URL)
		}
	}
}

// TestRemoteJobsDoNotQueueAtCoordinator: a Remote keeps no bound of its
// own, so a coordinator job's worker job never waits behind other jobs'
// worker jobs at the coordinator. With the event streams of five batch
// jobs held open at the worker, a single run still completes.
func TestRemoteJobsDoNotQueueAtCoordinator(t *testing.T) {
	const held = 5
	worker := startWorker(t, service.Options{}).Handler()
	release, entered := make(chan struct{}), make(chan struct{}, held)
	var (
		mu      sync.Mutex
		streams int
	)
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			mu.Lock()
			streams++
			hold := streams <= held
			mu.Unlock()
			if hold {
				entered <- struct{}{}
				<-release
			}
		}
		worker.ServeHTTP(w, r)
	}))
	t.Cleanup(proxy.Close)
	coord, err := fabric.NewCoordinator([]fabric.Backend{fabric.NewRemote(proxy.URL)})
	if err != nil {
		t.Fatal(err)
	}

	specs := expirySpecs(t)
	var wg sync.WaitGroup
	for i := 0; i < held; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := coord.Execute(context.Background(), specs, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	defer wg.Wait()
	defer close(release)
	for i := 0; i < held; i++ {
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d batch jobs reached the worker; the others wait at the coordinator", i, held)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := coord.Execute(ctx, specs[:1], nil); err != nil {
		t.Fatalf("single run behind %d outstanding worker jobs: %v", held, err)
	}
}
