package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"raccd/client"
)

// syncBuffer makes bytes.Buffer safe for the serve goroutine + test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// logLines parses every stderr line as the one-JSON-object-per-line
// schema the daemon promises (docs/OBSERVABILITY.md) and fails the test
// on any line that does not parse or lacks msg/level.
func logLines(t *testing.T, out string) []map[string]any {
	t.Helper()
	var lines []map[string]any
	for _, raw := range strings.Split(strings.TrimSpace(out), "\n") {
		if raw == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(raw), &m); err != nil {
			t.Fatalf("non-JSON log line %q: %v", raw, err)
		}
		if m["msg"] == nil || m["level"] == nil {
			t.Fatalf("log line missing msg/level: %q", raw)
		}
		lines = append(lines, m)
	}
	return lines
}

// TestServeEndToEnd boots the daemon on a loopback port, submits a run
// through the client, checks the result, stats, trace/phase reporting
// and the pprof side-listener, then cancels the context and expects a
// clean drain (exit code 0) with parseable JSON logs.
func TestServeEndToEnd(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var stdout, stderr syncBuffer
	codec := make(chan int, 1)
	go func() {
		codec <- serve(ctx, serveOptions{
			cacheDir:   t.TempDir(),
			queueDepth: 8,
			drain:      30 * time.Second,
			pprofAddr:  "127.0.0.1:0",
		}, ln, &stdout, &stderr)
	}()

	c := client.New("http://" + ln.Addr().String())
	hctx, hcancel := context.WithTimeout(ctx, 10*time.Second)
	defer hcancel()
	for {
		if err := c.Health(hctx); err == nil {
			break
		}
		select {
		case <-hctx.Done():
			t.Fatalf("daemon never became healthy; stderr:\n%s", stderr.String())
		case <-time.After(10 * time.Millisecond):
		}
	}

	// The pprof listener bound an ephemeral port; its address is in the
	// "pprof listening" log line.
	var pprofAddr string
	for _, line := range logLines(t, stderr.String()) {
		if line["msg"] == "pprof listening" {
			pprofAddr, _ = line["addr"].(string)
		}
	}
	if pprofAddr == "" {
		t.Fatalf("no pprof listening log line; stderr:\n%s", stderr.String())
	}
	resp, err := http.Get("http://" + pprofAddr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline status %d", resp.StatusCode)
	}

	st, err := c.SubmitRun(ctx, client.RunRequest{Workload: "Jacobi", Scale: 0.05, System: "RaCCD", DirRatio: 16})
	if err != nil {
		t.Fatal(err)
	}
	if st.TraceID == "" {
		t.Fatal("submitted job has no trace ID")
	}
	fin, err := c.Wait(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != "done" {
		t.Fatalf("job state %q (%s)", fin.State, fin.Error)
	}
	if fin.TraceID != st.TraceID {
		t.Fatalf("trace ID changed across polls: %q vs %q", fin.TraceID, st.TraceID)
	}
	if fin.Phases["exec"] <= 0 || fin.Phases["queue_wait"] < 0 {
		t.Fatalf("finished job phases incomplete: %v", fin.Phases)
	}
	csv, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv, "workload,") || !strings.Contains(csv, "Jacobi,RaCCD,16,") {
		t.Fatalf("unexpected CSV:\n%s", csv)
	}
	stats, err := c.ServerStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SimsRun != 1 {
		t.Fatalf("sims_run = %d, want 1", stats.SimsRun)
	}

	// Graceful shutdown: cancel (the SIGINT path) and expect exit 0.
	cancel()
	select {
	case code := <-codec:
		if code != 0 {
			t.Fatalf("exit code %d; stderr:\n%s", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not drain; stderr:\n%s", stderr.String())
	}
	out := stderr.String()
	if !strings.Contains(out, "draining jobs") || !strings.Contains(out, "bye") {
		t.Fatalf("missing drain log lines:\n%s", out)
	}
	// Every stderr line is JSON, and the job's lifecycle lines carry the
	// trace ID the client saw.
	traced := 0
	for _, line := range logLines(t, out) {
		if line["trace"] == st.TraceID {
			traced++
		}
	}
	if traced < 2 { // at least "job accepted" and "job finished"
		t.Fatalf("only %d log lines carry trace %s:\n%s", traced, st.TraceID, out)
	}
}

// startDaemon boots serve() on a loopback port and returns its base URL
// plus the exit-code channel. Shutdown happens when ctx is cancelled.
func startDaemon(t *testing.T, ctx context.Context, opts serveOptions) (string, chan int) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr syncBuffer
	codec := make(chan int, 1)
	go func() { codec <- serve(ctx, opts, ln, &stdout, &stderr) }()
	url := "http://" + ln.Addr().String()
	c := client.New(url)
	hctx, hcancel := context.WithTimeout(ctx, 10*time.Second)
	defer hcancel()
	for {
		if err := c.Health(hctx); err == nil {
			return url, codec
		}
		select {
		case <-hctx.Done():
			t.Fatalf("daemon never became healthy; stderr:\n%s", stderr.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestCoordinatorModeEndToEnd boots two worker daemons plus a coordinator
// wired to them via the workers option (the -workers flag path): a run
// submitted to the coordinator must simulate on exactly one worker and
// never in the coordinator's own process.
func TestCoordinatorModeEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base := serveOptions{queueDepth: 8, drain: 30 * time.Second}

	var urls []string
	var codecs []chan int
	for i := 0; i < 2; i++ {
		opts := base
		opts.cacheDir = t.TempDir()
		url, codec := startDaemon(t, ctx, opts)
		urls = append(urls, url)
		codecs = append(codecs, codec)
	}
	coordOpts := base
	coordOpts.cacheDir = t.TempDir()
	coordOpts.workers = urls
	coordOpts.inFlight = 2
	coordURL, coordCodec := startDaemon(t, ctx, coordOpts)
	codecs = append(codecs, coordCodec)

	c := client.New(coordURL)
	st, err := c.SubmitRun(ctx, client.RunRequest{Workload: "Jacobi", Scale: 0.05, System: "RaCCD", DirRatio: 16})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.Wait(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != "done" {
		t.Fatalf("job state %q (%s)", fin.State, fin.Error)
	}
	csv, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv, "Jacobi,RaCCD,16,") {
		t.Fatalf("unexpected CSV:\n%s", csv)
	}

	coordStats, err := c.ServerStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if coordStats.SimsRun != 0 {
		t.Fatalf("coordinator simulated %d runs itself, want 0", coordStats.SimsRun)
	}
	var workerSims uint64
	for _, u := range urls {
		ws, err := client.New(u).ServerStats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		workerSims += ws.SimsRun
	}
	if workerSims != 1 {
		t.Fatalf("workers simulated %d runs, want exactly 1", workerSims)
	}

	cancel()
	for i, codec := range codecs {
		select {
		case code := <-codec:
			if code != 0 {
				t.Fatalf("daemon %d exit code %d", i, code)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("daemon %d did not drain", i)
		}
	}
}

// TestSplitList pins the -workers parser: whitespace and stray commas
// are dropped, an empty value yields nil.
func TestSplitList(t *testing.T) {
	got := splitList(" http://a:8080, http://b:8080 ,,")
	if len(got) != 2 || got[0] != "http://a:8080" || got[1] != "http://b:8080" {
		t.Fatalf("splitList = %q", got)
	}
	if splitList("") != nil {
		t.Fatal("empty list should be nil")
	}
}

// TestRunFlagErrors covers flag/startup failures.
func TestRunFlagErrors(t *testing.T) {
	var stdout, stderr syncBuffer
	if code := run(context.Background(), []string{"-bogus"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
	if code := run(context.Background(), []string{"-addr", "256.0.0.1:http"}, &stdout, &stderr); code != 1 {
		t.Fatalf("bad addr: exit %d, want 1", code)
	}
	// The execution-engine knobs are gone: -engine is an unknown flag.
	if code := run(context.Background(), []string{"-engine", "seq"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-engine: exit %d, want 2", code)
	}
	// -jobs is the only bound on concurrent runs: -job-workers is gone.
	if code := run(context.Background(), []string{"-job-workers", "2"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-job-workers: exit %d, want 2", code)
	}
	if code := run(context.Background(), []string{"-log-level", "loud"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad log level: exit %d, want 2", code)
	}
	if code := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-pprof-addr", "256.0.0.1:http"}, &stdout, &stderr); code != 1 {
		t.Fatalf("bad pprof addr: exit %d, want 1", code)
	}
}
