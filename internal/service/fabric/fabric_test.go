package fabric

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"raccd/client"
	"raccd/internal/coherence"
	"raccd/internal/report"
	"raccd/internal/service/exec"
	"raccd/internal/sim"
	"raccd/internal/tracefile"
	"raccd/internal/workloads"
)

func TestPickNameDeterministicAndStable(t *testing.T) {
	names := []string{"http://a", "http://b", "http://c"}
	keys := make([]string, 200)
	for i := range keys {
		keys[i] = fmt.Sprintf("fp%d | id%d", i, i)
	}
	picks := make([]int, len(keys))
	counts := make([]int, len(names))
	for i, k := range keys {
		p := PickName(k, names)
		if p < 0 || p >= len(names) {
			t.Fatalf("pick %d out of range", p)
		}
		if again := PickName(k, names); again != p {
			t.Fatalf("key %q picked %d then %d", k, p, again)
		}
		picks[i] = p
		counts[p]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("backend %d got no keys out of %d (degenerate hash): %v", i, len(keys), counts)
		}
	}
	// Rendezvous property: removing one name only remaps the keys that
	// lived on it; every other key keeps its backend.
	reduced := []string{names[0], names[1]}
	for i, k := range keys {
		if picks[i] == 2 {
			continue
		}
		if p := PickName(k, reduced); p != picks[i] {
			t.Fatalf("key %q moved from %d to %d when an unrelated backend left", k, picks[i], p)
		}
	}
}

func TestNewSpecKeyMatchesStoreIdentity(t *testing.T) {
	req := client.RunRequest{Workload: "MD5", Scale: 0.05, System: "RaCCD", DirRatio: 16}
	spec, err := NewSpec(req)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Fingerprint == "" || spec.Identity == "" {
		t.Fatalf("spec = %+v, want fingerprint and identity", spec)
	}
	if spec.Key() != spec.Fingerprint+" | "+spec.Identity {
		t.Fatalf("Key() = %q", spec.Key())
	}
	if _, err := NewSpec(client.RunRequest{Workload: "MD5", System: "MESI"}); err == nil {
		t.Fatal("invalid system accepted")
	}
	if _, err := NewSpec(client.RunRequest{Workload: "NoSuchBench", System: "PT"}); err == nil {
		t.Fatal("invalid workload accepted")
	}
}

func TestNewCoordinatorValidation(t *testing.T) {
	if _, err := NewCoordinator(nil, 0); err == nil {
		t.Fatal("empty backend list accepted")
	}
	dup := []Backend{&fakeBackend{name: "w"}, &fakeBackend{name: "w"}}
	if _, err := NewCoordinator(dup, 0); err == nil {
		t.Fatal("duplicate backend names accepted")
	}
	anon := []Backend{&fakeBackend{name: ""}}
	if _, err := NewCoordinator(anon, 0); err == nil {
		t.Fatal("empty backend name accepted")
	}
}

// fakeBackend records which specs it ran and answers with a valid
// single-run CSV derived from the spec, so Execute's parse/merge path is
// exercised without any HTTP or simulation.
type fakeBackend struct {
	name string
	err  error

	mu   sync.Mutex
	runs []Spec
}

func (f *fakeBackend) Name() string { return f.name }

func (f *fakeBackend) Run(ctx context.Context, spec Spec) (string, []string, error) {
	f.mu.Lock()
	f.runs = append(f.runs, spec)
	f.mu.Unlock()
	if f.err != nil {
		return "", nil, f.err
	}
	res := resultForSpec(spec)
	csv := report.NewSet([]sim.Result{res}).CSV()
	return csv, []string{"ran " + spec.Key()}, nil
}

// resultForSpec derives a distinct, parseable result from a spec whose
// Identity is "id<ratio>".
func resultForSpec(spec Spec) sim.Result {
	var ratio int
	fmt.Sscanf(spec.Identity, "id%d", &ratio)
	return sim.Result{
		Workload: spec.Fingerprint,
		System:   coherence.RaCCD,
		DirRatio: ratio,
		Cycles:   uint64(1000 + ratio),
	}
}

func TestCoordinatorExecuteMergesDeterministically(t *testing.T) {
	b1, b2 := &fakeBackend{name: "w1"}, &fakeBackend{name: "w2"}
	c, err := NewCoordinator([]Backend{b1, b2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Ratios must be powers of two for the report key, but fake results
	// never pass through config validation — any int works here.
	var specs []Spec
	for i := 1; i <= 16; i++ {
		specs = append(specs, Spec{Fingerprint: fmt.Sprintf("wl%02d", i), Identity: fmt.Sprintf("id%d", i)})
	}
	var lines []string
	set, err := c.Execute(context.Background(), specs, func(line string) { lines = append(lines, line) })
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(specs) {
		t.Fatalf("%d progress lines, want %d", len(lines), len(specs))
	}
	// Progress commits strictly in spec order no matter which backend
	// finished first.
	for i, line := range lines {
		if want := "ran " + specs[i].Key(); line != want {
			t.Fatalf("line %d = %q, want %q", i, line, want)
		}
	}
	// Every spec ran exactly once, on the backend its key hashes to.
	if got := len(b1.runs) + len(b2.runs); got != len(specs) {
		t.Fatalf("backends ran %d specs, want %d", got, len(specs))
	}
	if len(b1.runs) == 0 || len(b2.runs) == 0 {
		t.Fatalf("degenerate split %d/%d", len(b1.runs), len(b2.runs))
	}
	names := []string{"w1", "w2"}
	for bi, b := range []*fakeBackend{b1, b2} {
		for _, s := range b.runs {
			if PickName(s.Key(), names) != bi {
				t.Fatalf("spec %q ran on backend %d against its hash", s.Key(), bi)
			}
		}
	}
	// The merged set holds every run.
	if got := len(set.Results()); got != len(specs) {
		t.Fatalf("merged set has %d results, want %d", got, len(specs))
	}
}

func TestCoordinatorExecutePropagatesErrors(t *testing.T) {
	boom := errors.New("worker exploded")
	b1, b2 := &fakeBackend{name: "w1", err: boom}, &fakeBackend{name: "w2", err: boom}
	c, err := NewCoordinator([]Backend{b1, b2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	specs := []Spec{{Fingerprint: "wl", Identity: "id1"}}
	if _, err := c.Execute(context.Background(), specs, nil); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
}

func TestCoordinatorRejectsMalformedWorkerCSV(t *testing.T) {
	bad := &badCSVBackend{}
	c, err := NewCoordinator([]Backend{bad}, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Execute(context.Background(), []Spec{{Fingerprint: "f", Identity: "i"}}, nil)
	if err == nil || !strings.Contains(err.Error(), "bad") {
		t.Fatalf("err = %v, want a parse failure naming the backend", err)
	}
}

type badCSVBackend struct{}

func (badCSVBackend) Name() string { return "bad" }
func (badCSVBackend) Run(context.Context, Spec) (string, []string, error) {
	return "this is not a report CSV\n", nil, nil
}

// probeBackend is a fakeBackend that also answers health checks, like
// Remote does via GET /healthz.
type probeBackend struct {
	fakeBackend
	healthErr error
}

func (p *probeBackend) CheckHealth(context.Context) error { return p.healthErr }

// TestBackendStatsAndProbe covers the coordinator's per-backend health
// and traffic accounting: RunSpec tallies requests and failures (but
// not cancellations), and Probe flips the up gauge for backends whose
// health check fails while leaving checker-less backends up.
func TestBackendStatsAndProbe(t *testing.T) {
	ok := &probeBackend{fakeBackend: fakeBackend{name: "w1"}}
	down := &probeBackend{fakeBackend: fakeBackend{name: "w2", err: errors.New("boom")}, healthErr: errors.New("connection refused")}
	local := &fakeBackend{name: "local"}
	c, err := NewCoordinator([]Backend{ok, down, local}, 1)
	if err != nil {
		t.Fatal(err)
	}

	// One run on each backend: w2 fails and counts an error.
	ctx := context.Background()
	for bi := range []Backend{ok, down, local} {
		c.runOn(ctx, bi, Spec{Fingerprint: "wl", Identity: "id1"})
	}
	// A cancelled run is not the backend's fault: request counted, error not.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	c.runOn(canceled, 1, Spec{Fingerprint: "wl", Identity: "id2"})

	sts := c.BackendStatuses()
	if len(sts) != 3 {
		t.Fatalf("%d statuses, want 3", len(sts))
	}
	for i, want := range []BackendStatus{
		{Name: "w1", Up: true, Requests: 1, Errors: 0},
		{Name: "w2", Up: true, Requests: 2, Errors: 1},
		{Name: "local", Up: true, Requests: 1, Errors: 0},
	} {
		if sts[i] != want {
			t.Errorf("status[%d] = %+v, want %+v", i, sts[i], want)
		}
	}

	// Probe: the failing checker goes down with its error quoted; the
	// checker-less backend stays up.
	probed := c.Probe(ctx)
	if probed[0].Up != true || probed[1].Up != false || probed[2].Up != true {
		t.Fatalf("probe ups = %v/%v/%v, want true/false/true", probed[0].Up, probed[1].Up, probed[2].Up)
	}
	if !strings.Contains(probed[1].Error, "connection refused") {
		t.Fatalf("probe error = %q", probed[1].Error)
	}
	if up := c.BackendStatuses()[1].Up; up {
		t.Fatal("probe result not stored in the up gauge")
	}
	// Recovery: the next probe brings it back.
	down.healthErr = nil
	if probed := c.Probe(ctx); !probed[1].Up || probed[1].Error != "" {
		t.Fatalf("recovered probe = %+v", probed[1])
	}
}

// gateBackend tracks how many runs are in flight on it and holds every
// run until release is closed, signalling entered as each one starts.
type gateBackend struct {
	release, entered chan struct{}

	mu       sync.Mutex
	cur, max int
}

func (g *gateBackend) Name() string { return "gate" }

func (g *gateBackend) Run(ctx context.Context, spec Spec) (string, []string, error) {
	g.mu.Lock()
	g.cur++
	g.max = max(g.max, g.cur)
	g.mu.Unlock()
	g.entered <- struct{}{}
	<-g.release
	g.mu.Lock()
	g.cur--
	g.mu.Unlock()
	return report.NewSet([]sim.Result{resultForSpec(spec)}).CSV(), nil, nil
}

// TestInFlightBoundSharedByRunsAndBatches: a backend's in-flight bound
// holds across every caller — single runs (RunSpec) and batches
// (Execute) running at once never have more than the bound executing on
// one backend.
func TestInFlightBoundSharedByRunsAndBatches(t *testing.T) {
	const bound, singles, batched = 3, 6, 6
	g := &gateBackend{release: make(chan struct{}), entered: make(chan struct{}, singles+batched)}
	c, err := NewCoordinator([]Backend{g}, bound)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < singles; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := c.RunSpec(ctx, Spec{Fingerprint: "single", Identity: fmt.Sprintf("id%d", i)}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	specs := make([]Spec, batched)
	for i := range specs {
		specs[i] = Spec{Fingerprint: fmt.Sprintf("wl%d", i), Identity: fmt.Sprintf("id%d", i)}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := c.Execute(ctx, specs, nil); err != nil {
			t.Error(err)
		}
	}()

	// Once the bound is reached nothing can finish until release, so
	// any run dispatched past the bound shows up in max meanwhile.
	for i := 0; i < bound; i++ {
		<-g.entered
	}
	time.Sleep(20 * time.Millisecond)
	close(g.release)
	wg.Wait()
	if g.max != bound {
		t.Fatalf("%d runs in flight at once on one backend, want the bound %d", g.max, bound)
	}
}

// TestSpecsFromMatrixReadsTraceOnce: every cell of a sweep over a trace
// shares one workload identity, resolved once, so expanding the default
// matrix's 23 cells reads and hashes the file once instead of once per
// cell. The bytes allocated stay under twice the file size (the file is
// read whole once).
func TestSpecsFromMatrixReadsTraceOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jacobi.rtf")
	tr, err := tracefile.Record(workloads.MustGet("Jacobi", 4), tracefile.Fingerprint("Jacobi@4"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tracefile.WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := exec.BuildMatrix(client.SweepRequest{Workloads: []string{"trace:" + path}, ADR: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRuns() != 23 {
		t.Fatalf("default matrix over one trace has %d cells, want 23", m.NumRuns())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	specs, err := SpecsFromMatrix(m, "")
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("SpecsFromMatrix allocated %d B for 23 cells of a %d B trace", alloc, info.Size())
	if alloc > 2*uint64(info.Size()) {
		t.Fatalf("SpecsFromMatrix allocated %d B for 23 cells of a %d B trace, want under 2× the file", alloc, info.Size())
	}
	for _, s := range specs {
		if s.Identity != specs[0].Identity || !strings.HasPrefix(s.Identity, "trace:Jacobi/sha=") {
			t.Fatalf("cell identity %q, want every cell on the trace's identity %q", s.Identity, specs[0].Identity)
		}
	}
	// A batch that names the trace in every run resolves it once too,
	// and reports a bad run by its index.
	reqs := make([]client.RunRequest, len(specs))
	for i, s := range specs {
		reqs[i] = s.Request
	}
	batch, err := NewSpecs(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if batch[i].Key() != specs[i].Key() {
			t.Fatalf("batch run %d keyed %q, sweep cell %q", i, batch[i].Key(), specs[i].Key())
		}
	}
	reqs[5].System = "MESI"
	if _, err := NewSpecs(reqs); err == nil || !strings.HasPrefix(err.Error(), "run 5: ") {
		t.Fatalf("bad run 5: err = %v, want it named by index", err)
	}
}
