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
	"raccd/internal/obs"
	"raccd/internal/resultstore"
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

// TestSpecRowIsTheResultRowName: a spec's row name is the name of the
// workload its request builds — the workload column of its result row —
// which for a synth: spec is its canonical unscaled spec, not its
// identity, and for a trace the name in its header, not its path.
func TestSpecRowIsTheResultRowName(t *testing.T) {
	path := filepath.Join(t.TempDir(), "renamed.rtf")
	tr, err := tracefile.Record(workloads.MustGet("Jacobi", 0.05), tracefile.Fingerprint("Jacobi@0.05"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tracefile.WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		workload string
		scale    float64
		row, id  string
	}{
		{"MD5", 0.05, "MD5", "bench:MD5/scale=0.05"},
		{"synth:chain/depth=4/seed=2", 0.05, "synth:chain/seed=2/depth=4", "synth:chain/seed=2/depth=1"},
		{"trace:" + path, 0, "Jacobi", ""},
	} {
		spec, err := NewSpec(client.RunRequest{Workload: tc.workload, Scale: tc.scale, System: "PT"})
		if err != nil {
			t.Fatal(err)
		}
		w, err := workloads.Get(tc.workload, exec.Scale(spec.Request))
		if err != nil {
			t.Fatal(err)
		}
		if spec.Row != tc.row || spec.Row != w.Name() {
			t.Errorf("%s: row %q, want %q, the built workload's name %q", tc.workload, spec.Row, tc.row, w.Name())
		}
		if tc.id != "" && spec.Identity != tc.id {
			t.Errorf("%s: identity %q, want %q", tc.workload, spec.Identity, tc.id)
		}
	}
}

func TestNewCoordinatorValidation(t *testing.T) {
	if _, err := NewCoordinator(nil); err == nil {
		t.Fatal("empty backend list accepted")
	}
	dup := []Backend{&fakeBackend{name: "w"}, &fakeBackend{name: "w"}}
	if _, err := NewCoordinator(dup); err == nil {
		t.Fatal("duplicate backend names accepted")
	}
	anon := []Backend{&fakeBackend{name: ""}}
	if _, err := NewCoordinator(anon); err == nil {
		t.Fatal("empty backend name accepted")
	}
}

// fakeBackend records the batches it ran and answers each spec with a
// result derived from it, so Execute's scatter and merge are exercised
// without any HTTP or simulation. With err set it fails every batch,
// after calling onRun when that is set.
type fakeBackend struct {
	name  string
	err   error
	onRun func()

	mu      sync.Mutex
	runs    []Spec
	batches int
}

func (f *fakeBackend) Name() string { return f.name }

func (f *fakeBackend) Run(ctx context.Context, specs []Spec, progress func(i int, line string)) ([]sim.Result, error) {
	f.mu.Lock()
	f.runs = append(f.runs, specs...)
	f.batches++
	f.mu.Unlock()
	if f.err != nil {
		if f.onRun != nil {
			f.onRun()
		}
		return nil, f.err
	}
	out := make([]sim.Result, len(specs))
	for i, s := range specs {
		out[i] = resultForSpec(s)
		progress(i, "ran "+s.Key())
	}
	return out, nil
}

// resultForSpec derives a distinct result from a spec whose Identity is
// "id<ratio>".
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
	c, err := NewCoordinator([]Backend{b1, b2})
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
	// Every spec ran exactly once, on the backend its key hashes to, and
	// each backend got its share as one batch.
	if got := len(b1.runs) + len(b2.runs); got != len(specs) {
		t.Fatalf("backends ran %d specs, want %d", got, len(specs))
	}
	if len(b1.runs) == 0 || len(b2.runs) == 0 {
		t.Fatalf("degenerate split %d/%d", len(b1.runs), len(b2.runs))
	}
	names := []string{"w1", "w2"}
	for bi, b := range []*fakeBackend{b1, b2} {
		if b.batches != 1 {
			t.Fatalf("backend %d got %d batches, want 1", bi, b.batches)
		}
		for _, s := range b.runs {
			if PickName(s.Key(), names) != bi {
				t.Fatalf("spec %q ran on backend %d against its hash", s.Key(), bi)
			}
		}
	}
	// The merged set holds every run, each under its own result.
	if got := len(set.Results()); got != len(specs) {
		t.Fatalf("merged set has %d results, want %d", got, len(specs))
	}
	for _, s := range specs {
		want := resultForSpec(s)
		if got, ok := set.Get(want.Workload, want.System, want.DirRatio, false); !ok || got != want {
			t.Fatalf("merged set holds %+v for %s, want %+v", got, s.Key(), want)
		}
	}
}

func TestCoordinatorExecutePropagatesErrors(t *testing.T) {
	boom := errors.New("worker exploded")
	b1, b2 := &fakeBackend{name: "w1", err: boom}, &fakeBackend{name: "w2", err: boom}
	c, err := NewCoordinator([]Backend{b1, b2})
	if err != nil {
		t.Fatal(err)
	}
	specs := []Spec{{Fingerprint: "wl", Identity: "id1"}}
	if _, err := c.Execute(context.Background(), specs, nil); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
}

// TestSingleHomeDispatchesOnCaller: a job whose runs all home on one
// backend, as every single-run job's do, dispatches on the caller's
// goroutine, so a panic in the backend reaches the caller (the daemon's
// per-job recover) instead of ending the process.
func TestSingleHomeDispatchesOnCaller(t *testing.T) {
	var backends []Backend
	for _, name := range []string{"w1", "w2", "w3"} {
		backends = append(backends, &fakeBackend{name: name, err: errors.New("unreached"),
			onRun: func() { panic("backend " + name + " panicked") }})
	}
	c, err := NewCoordinator(backends)
	if err != nil {
		t.Fatal(err)
	}
	for bi, specs := range homedSpecs(c, 2) {
		got := func() (p any) {
			defer func() { p = recover() }()
			c.Execute(context.Background(), specs, nil)
			return nil
		}()
		if want := "backend " + c.names[bi] + " panicked"; got != want {
			t.Fatalf("recovered %v, want %q", got, want)
		}
	}
}

// probeBackend is a fakeBackend that also answers health checks, like
// Remote does via GET /healthz.
type probeBackend struct {
	fakeBackend
	healthErr error
}

func (p *probeBackend) CheckHealth(context.Context) error { return p.healthErr }

// homedSpecs returns, for each of c's backends, n specs that home on it.
func homedSpecs(c *Coordinator, n int) [][]Spec {
	out := make([][]Spec, len(c.backends))
	for i, full := 1, 0; full < len(out); i++ {
		s := Spec{Fingerprint: "wl", Identity: fmt.Sprintf("id%d", i)}
		if bi := c.Pick(s.Key()); len(out[bi]) < n {
			if out[bi] = append(out[bi], s); len(out[bi]) == n {
				full++
			}
		}
	}
	return out
}

// TestBackendStatsAndProbe covers the coordinator's per-backend health
// and traffic accounting: a dispatch adds its run count to the
// backend's requests, a failed one to its errors too (but not a
// cancelled one), and Probe flips the up gauge for backends whose
// health check fails while leaving checker-less backends up.
func TestBackendStatsAndProbe(t *testing.T) {
	ok := &probeBackend{fakeBackend: fakeBackend{name: "w1"}}
	down := &probeBackend{fakeBackend: fakeBackend{name: "w2", err: errors.New("boom")}, healthErr: errors.New("connection refused")}
	local := &fakeBackend{name: "local"}
	c, err := NewCoordinator([]Backend{ok, down, local})
	if err != nil {
		t.Fatal(err)
	}

	// A two-run job on each backend: w2's dispatch fails and counts both
	// runs as errors.
	ctx := context.Background()
	homed := homedSpecs(c, 2)
	for _, specs := range homed {
		c.Execute(ctx, specs, nil)
	}
	// A dispatch cancelled while it runs is not the backend's fault: its
	// run counts as a request, not as an error.
	canceled, cancel := context.WithCancel(ctx)
	down.onRun = cancel
	c.Execute(canceled, homed[1][:1], nil)

	sts := c.BackendStatuses()
	if len(sts) != 3 {
		t.Fatalf("%d statuses, want 3", len(sts))
	}
	for i, want := range []BackendStatus{
		{Name: "w1", Up: true, Requests: 2, Errors: 0},
		{Name: "w2", Up: true, Requests: 3, Errors: 2},
		{Name: "local", Up: true, Requests: 2, Errors: 0},
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

// gate stands in for a Local backend's simulations: it tracks how many
// runs are simulating at once and holds every run until release is
// closed, signalling entered as each one starts.
type gate struct {
	release, entered chan struct{}

	mu       sync.Mutex
	cur, max int
}

func (g *gate) run(ctx context.Context, cfg sim.Config, key resultstore.Key, workload string, scale float64) (sim.Result, bool, error) {
	g.mu.Lock()
	g.cur++
	g.max = max(g.max, g.cur)
	g.mu.Unlock()
	g.entered <- struct{}{}
	<-g.release
	g.mu.Lock()
	g.cur--
	g.mu.Unlock()
	return sim.Result{Workload: key.String()}, false, nil
}

// TestInFlightBoundSharedByRunsAndBatches: Local's in-flight bound holds
// across every job — single-run jobs and a batch running at once never
// have more than the bound simulating.
func TestInFlightBoundSharedByRunsAndBatches(t *testing.T) {
	const bound, singles, batched = 3, 6, 6
	g := &gate{release: make(chan struct{}), entered: make(chan struct{}, singles+batched)}
	c, err := NewCoordinator([]Backend{&Local{name: "local", slots: make(chan struct{}, bound), run: g.run}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	execute := func(specs []Spec) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Execute(ctx, specs, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	for i := 0; i < singles; i++ {
		execute([]Spec{{Fingerprint: "single", Identity: fmt.Sprintf("id%d", i)}})
	}
	batch := make([]Spec, batched)
	for i := range batch {
		batch[i] = Spec{Fingerprint: fmt.Sprintf("wl%d", i), Identity: fmt.Sprintf("id%d", i)}
	}
	execute(batch)

	// Once the bound is reached nothing can finish until release, so
	// any run started past the bound shows up in max meanwhile.
	for i := 0; i < bound; i++ {
		<-g.entered
	}
	time.Sleep(20 * time.Millisecond)
	close(g.release)
	wg.Wait()
	if g.max != bound {
		t.Fatalf("%d runs simulating at once, want the bound %d", g.max, bound)
	}
}

// TestBatchQueueWaitIsWaitingOnly: a batch run's queue_wait counts only
// its own wait for a slot, not the runs its worker ran before it. Eight
// runs of 5 ms each on two uncontended slots wait next to nothing, so
// queue_wait stays far below exec; counting each run from the job's
// start would count 60 ms of waiting against the 40 ms of exec.
func TestBatchQueueWaitIsWaitingOnly(t *testing.T) {
	const runs, slots = 8, 2
	run := func(ctx context.Context, cfg sim.Config, key resultstore.Key, workload string, scale float64) (sim.Result, bool, error) {
		defer obs.PhasesFrom(ctx).Start(obs.PhaseExec)()
		time.Sleep(5 * time.Millisecond)
		return sim.Result{Workload: key.String()}, false, nil
	}
	c, err := NewCoordinator([]Backend{&Local{name: "local", slots: make(chan struct{}, slots), run: run}})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Spec, runs)
	for i := range batch {
		batch[i] = Spec{Fingerprint: fmt.Sprintf("wl%d", i), Identity: fmt.Sprintf("id%d", i)}
	}
	ph := &obs.Phases{}
	now := time.Now()
	ph.Begin(now, now)
	if _, err := c.Execute(obs.WithPhases(context.Background(), ph), batch, nil); err != nil {
		t.Fatal(err)
	}
	s := ph.Seconds()
	if wait, exec := s[obs.PhaseQueueWait], s[obs.PhaseExec]; exec < 0.04 || wait > exec/4 {
		t.Fatalf("queue_wait %.4fs against exec %.4fs, want exec ≥ 0.04s and queue_wait under a quarter of it", wait, exec)
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
