package fabric_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"raccd/client"
	"raccd/internal/service"
	"raccd/internal/service/fabric"
	"raccd/internal/service/queue"
)

// evictingProxy fronts a worker daemon whose queue depth is 1. Once
// armed, the first result request it sees waits while the proxy pushes
// W+1 warm runs through the worker (W the worker's window of finished
// jobs), so the job whose result is asked for has expired when the
// request goes on.
type evictingProxy struct {
	url     string
	worker  *service.Server
	armed   atomic.Bool
	evicted atomic.Int64 // jobs confirmed expired before their result request
}

// accepted counts the jobs the worker has accepted and finished, less
// the warm runs the proxy pushed.
func (p *evictingProxy) accepted() int {
	return p.worker.Stats().Jobs["done"] - int(p.evicted.Load())*(queue.RetainedPerSlot+1)
}

func startEvictingProxy(t *testing.T, warm client.RunRequest) *evictingProxy {
	t.Helper()
	ws := startWorker(t, service.Options{QueueDepth: 1})
	worker := httptest.NewServer(ws.Handler())
	t.Cleanup(worker.Close)
	// A finished job holds the worker's one place until it leaves the
	// queue, so the pushes retry 503s.
	push := client.New(worker.URL, client.WithRetry(50, time.Millisecond))
	p := &evictingProxy{worker: ws}
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if id, ok := strings.CutSuffix(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), "/result"); ok && p.armed.CompareAndSwap(true, false) {
			ctx := r.Context()
			for i := 0; i <= queue.RetainedPerSlot; i++ {
				st, err := push.SubmitRun(ctx, warm)
				if err != nil {
					t.Errorf("pushing warm run %d: %v", i, err)
					break
				}
				if _, err := push.Wait(ctx, st.ID, nil); err != nil {
					t.Errorf("waiting on warm run %d: %v", i, err)
					break
				}
			}
			if _, err := push.Job(ctx, id); errors.Is(err, client.ErrExpired) {
				p.evicted.Add(1)
			}
		}
		ws.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(proxy.Close)
	p.url = proxy.URL
	return p
}

// expirySpecs is a small run list; its first run is also the warm run the
// proxy pushes.
func expirySpecs(t *testing.T) []fabric.Spec {
	t.Helper()
	var reqs []client.RunRequest
	for _, wl := range []string{"MD5", "Jacobi"} {
		for _, sys := range []string{"PT", "RaCCD"} {
			reqs = append(reqs, client.RunRequest{Workload: wl, Scale: 0.05, System: sys})
		}
	}
	specs, err := fabric.NewSpecs(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// TestCoordinatorSurvivesWorkerExpiry: a worker job that expires between
// Wait and Result is resubmitted once, so the coordinator's merged CSV
// is byte-identical to a run without eviction and every run's progress
// line arrives once.
func TestCoordinatorSurvivesWorkerExpiry(t *testing.T) {
	specs := expirySpecs(t)
	p := startEvictingProxy(t, specs[0].Request)
	coord, err := fabric.NewCoordinator([]fabric.Backend{
		fabric.NewRemote(p.url, client.WithRetry(50, time.Millisecond)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := coord.Execute(ctx, specs, nil)
	if err != nil {
		t.Fatal(err)
	}

	p.armed.Store(true)
	before := p.accepted()
	var lines []string
	got, err := coord.Execute(ctx, specs, func(line string) { lines = append(lines, line) })
	if err != nil {
		t.Fatal(err)
	}
	if p.evicted.Load() != 1 {
		t.Fatalf("%d jobs expired before their result request, want 1", p.evicted.Load())
	}
	if n := p.accepted() - before; n != 2 {
		t.Fatalf("the worker ran %d jobs for %d runs, want the batch job and one resubmission", n, len(specs))
	}
	if got.CSV() != want.CSV() {
		t.Fatalf("merged CSV after an expiry differs:\n%s\nwant:\n%s", got.CSV(), want.CSV())
	}
	if len(lines) != len(specs) {
		t.Fatalf("%d progress lines for %d runs: %q", len(lines), len(specs), lines)
	}
}

// TestRunBatchSurvivesWorkerExpiry: the same for a Remote on its own,
// the way `sweep -remote` ships a sweep as one batch job: the results
// are unchanged and no progress line is handed on twice.
func TestRunBatchSurvivesWorkerExpiry(t *testing.T) {
	specs := expirySpecs(t)
	p := startEvictingProxy(t, specs[0].Request)
	remote := fabric.NewRemote(p.url, client.WithRetry(50, time.Millisecond))
	ctx := context.Background()
	want, err := remote.Run(ctx, specs, func(int, string) {})
	if err != nil {
		t.Fatal(err)
	}

	p.armed.Store(true)
	before := p.accepted()
	var lines []string
	got, err := remote.Run(ctx, specs, func(_ int, line string) { lines = append(lines, line) })
	if err != nil {
		t.Fatal(err)
	}
	if p.evicted.Load() != 1 || p.accepted()-before != 2 {
		t.Fatalf("%d expired, %d batch jobs; want the batch expired once and resubmitted once",
			p.evicted.Load(), p.accepted()-before)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("batch results after an expiry differ:\n%+v\nwant:\n%+v", got, want)
	}
	if len(lines) != len(specs) {
		t.Fatalf("%d progress lines for %d runs: %q", len(lines), len(specs), lines)
	}
}
