package service

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"raccd/internal/resultstore"
	"raccd/internal/service/queue"
)

// counts reports the runners started and the runners idle now.
func (r *runners) counts() (started, idle int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.started, len(r.idle)
}

// waitIdle waits until every runner s started is idle, which it is only
// once the job it ran has finished, and returns how many it started.
func waitIdle(t *testing.T, s *Server) int {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		started, idle := s.run.counts()
		if started == idle {
			return started
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d runners still busy", started-idle, started)
		}
		time.Sleep(time.Millisecond)
	}
}

// admitWave admits n jobs that run at once: each waits until all n have
// started. It returns the jobs once every one has finished and its
// runner is idle again.
func admitWave(t *testing.T, s *Server, n int) []*queue.Job {
	t.Helper()
	var started sync.WaitGroup
	started.Add(n)
	jobs := make([]*queue.Job, n)
	for i := range jobs {
		jobs[i] = queue.NewJob(s.q.NewID(), "run", "", 1)
		if err := s.admit(jobs[i], func(*queue.Job) (string, error) {
			started.Done()
			started.Wait()
			return "x\n", nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	waitIdle(t, s)
	for _, j := range jobs {
		if _, state, msg := j.Result(); state != StateDone {
			t.Fatalf("job %s = %s (%s), want done", j.ID(), state, msg)
		}
	}
	return jobs
}

// TestLaterJobReusesIdleRunner: jobs admitted one after another, each
// once the one before has finished, all run on the first job's runner.
func TestLaterJobReusesIdleRunner(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	for i := 0; i < 5; i++ {
		admitWave(t, s, 1)
		if started, _ := s.run.counts(); started != 1 {
			t.Fatalf("after %d sequential jobs, %d runners started, want 1", i+1, started)
		}
	}
}

// TestRunnersNeverOutnumberConcurrentJobs: waves of jobs that all run at
// once start runners only while a wave is larger than every wave before
// it, so the runners are as many as the most jobs that ran at once.
func TestRunnersNeverOutnumberConcurrentJobs(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	most := 0
	for _, n := range []int{2, 1, 4, 3, 1, 4, 6, 2} {
		admitWave(t, s, n)
		most = max(most, n)
		if started, _ := s.run.counts(); started != most {
			t.Fatalf("after a wave of %d, %d runners started, want %d (the largest wave)", n, started, most)
		}
	}
}

// runnerGoroutines counts the goroutines running a job runner's loop.
func runnerGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "service.(*runners).loop")
}

// TestShutdownStopsRunners: once Shutdown returns, no runner is left,
// neither an idle one nor the one whose job the drain waited for.
func TestShutdownStopsRunners(t *testing.T) {
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Store: store, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	before := runnerGoroutines()
	admitWave(t, s, 3)
	release := make(chan struct{})
	busy := queue.NewJob(s.q.NewID(), "run", "", 1)
	if err := s.admit(busy, func(*queue.Job) (string, error) { <-release; return "x\n", nil }); err != nil {
		t.Fatal(err)
	}
	if got := runnerGoroutines() - before; got != 3 {
		t.Fatalf("%d runner goroutines beside the busy job's, want 3", got)
	}
	time.AfterFunc(20*time.Millisecond, func() { close(release) })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, state, _ := busy.Result(); state != StateDone {
		t.Fatalf("busy job = %s after the drain, want done", state)
	}
	// Shutdown waited for every runner to return; a returned goroutine
	// can still show in a stack dump for a moment while it exits.
	for deadline := time.Now().Add(time.Second); runnerGoroutines() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d runner goroutines left after Shutdown returned", runnerGoroutines()-before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPanickingJobFailsOnlyItself: a job body that panics fails its own
// job, and its runner goes on to run the next job.
func TestPanickingJobFailsOnlyItself(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	bad := queue.NewJob(s.q.NewID(), "run", "", 1)
	if err := s.admit(bad, func(*queue.Job) (string, error) { panic("boom") }); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, s)
	if _, state, msg := bad.Result(); state != StateFailed || !strings.Contains(msg, "job panicked: boom") {
		t.Fatalf("panicking job = %s (%q), want failed with the panic", state, msg)
	}
	good := admitWave(t, s, 1)[0]
	if csv, _, _ := good.Result(); csv != "x\n" {
		t.Fatalf("next job's result = %q", csv)
	}
	if started, _ := s.run.counts(); started != 1 {
		t.Fatalf("%d runners started, want the panicking job's runner reused", started)
	}
}
