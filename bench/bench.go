// Package bench is the repository's benchmark: four workloads that drive
// the simulator and its serving stack end to end, each able to rerun as a
// traced run and a CPU-profiled run that attribute host time to layers.
// cmd/raccdbench is its command; README.md is the metric catalogue.
//
// One invocation runs one workload and reports one Result: the end-to-end
// metrics of a timed window, or, with Options.Trace, the per-layer
// metrics. Inputs are a pure function of Options.Seed, and every
// operation's output is checked, so a run that reports Correct produced
// the reference results.
package bench

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Options selects one benchmark run.
type Options struct {
	// Workload names the workload (see Workloads).
	Workload string
	// Seed drives every input the workload generates.
	Seed int64
	// Seconds is the length of the timed window.
	Seconds float64
	// Trace replaces the timed window with the traced and profiled runs
	// and reports per-layer metrics instead of end-to-end ones.
	Trace bool
	// Short shrinks every input so that a run takes about a second: the
	// smoke-test size, exercising the same code paths.
	Short bool
	// WorkDir holds the run's scratch files (result stores, trace files,
	// profiles); everything the run creates there is removed at the end.
	WorkDir string
}

// Result is what one run reports.
type Result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   Metrics `json:"metrics"`
	// Failures describes the first failed operations, for diagnostics.
	Failures []string `json:"-"`
	// HostFactor is the host-speed scale applied to every time (see
	// hostProbe): above 1, the host ran faster than the reference.
	HostFactor float64 `json:"-"`
}

// workload is one benchmark input set: how to set it up from a seed.
type workload struct {
	name string
	// rate is how many operations a window admits per second: the
	// workload's rate on the 2-CPU machine its sizes are calibrated on (a
	// fig2-sweep window admits whole sweeps). A window of s seconds runs
	// rate×s of them — a fixed amount of work, so state that grows with
	// the operations done (the daemon's retained jobs) compares between
	// commits — and ends early after windowSlack×s seconds.
	rate  float64
	setup func(ctx context.Context, e *env) (instance, error)
}

// env is what a workload's setup is given.
type env struct {
	seed  int64
	short bool
	// dir is scratch space owned by this setup.
	dir string
}

// instance is one set-up copy of a workload, ready for timed operations.
type instance interface {
	// run executes the operations w admits, recording each in rec. It
	// returns an error only when it cannot continue at all.
	run(ctx context.Context, w *window, rec *recorder) error
	// verify completes the output checks run defers past the window.
	verify(ctx context.Context, rec *recorder) error
	// layers performs the traced run, setting per-layer metrics in m: a
	// sample of simulations traced for about budget, or, for a serving
	// workload, ops operations with every call timed.
	layers(ctx context.Context, budget time.Duration, ops int, rec *recorder, m Metrics) error
	// close stops everything the instance started and waits for it.
	close(ctx context.Context)
}

// Workloads lists the workload names in the order they are run.
func Workloads() []string {
	out := make([]string, len(registry))
	for i, w := range registry {
		out[i] = w.name
	}
	return out
}

var registry = []workload{
	{name: "fig2-sweep", rate: 4, setup: setupFig2},
	{name: "m64-trace-replay", rate: 10, setup: setupM64},
	{name: "serve-warm", rate: 4800, setup: setupServeWarm},
	{name: "fabric-mixed", rate: 42, setup: setupFabric},
}

// setupRepeats is how many times an untraced run sets its workload up;
// setup_s is the median, so one slow first set-up does not decide it.
const setupRepeats = 5

// segments is how many parts a timed window is cut into, with the host
// probed between them.
const segments = 40

// Run executes one benchmark run.
func Run(ctx context.Context, opts Options) (Result, error) {
	var w *workload
	for i := range registry {
		if registry[i].name == opts.Workload {
			w = &registry[i]
		}
	}
	if w == nil {
		return Result{}, fmt.Errorf("bench: unknown workload %q (want one of %v)", opts.Workload, Workloads())
	}
	if opts.Seconds <= 0 {
		return Result{}, fmt.Errorf("bench: non-positive window %gs", opts.Seconds)
	}
	if err := os.MkdirAll(opts.WorkDir, 0o755); err != nil {
		return Result{}, fmt.Errorf("bench: %w", err)
	}
	dir, err := os.MkdirTemp(opts.WorkDir, w.name+"-")
	if err != nil {
		return Result{}, fmt.Errorf("bench: %w", err)
	}
	defer os.RemoveAll(dir)

	repeats := setupRepeats
	if opts.Trace {
		repeats = 1
	}
	var inst instance
	setups := make([]float64, 0, repeats)
	for i := 0; i < repeats; i++ {
		e := &env{seed: opts.Seed, short: opts.Short, dir: filepath.Join(dir, fmt.Sprintf("setup%d", i))}
		if err := os.Mkdir(e.dir, 0o755); err != nil {
			return Result{}, fmt.Errorf("bench: %w", err)
		}
		start := time.Now()
		in, err := w.setup(ctx, e)
		if err != nil {
			return Result{}, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < repeats-1 {
			in.close(ctx)
			continue
		}
		inst = in
	}
	defer inst.close(ctx)

	ops := int(math.Ceil(w.rate * opts.Seconds))
	span := time.Duration(opts.Seconds * float64(time.Second))
	rec := &recorder{}
	m := Metrics{}
	probe := newHostProbe()
	probe.measure()
	if opts.Trace {
		if err := inst.layers(ctx, span/2, ops/10+1, rec, m); err != nil {
			return Result{}, fmt.Errorf("%s: traced run: %w", w.name, err)
		}
		probe.measure()
		if err := profile(ctx, inst, newWindow(ops/3+1, span/3), dir, rec, probe, m); err != nil {
			return Result{}, fmt.Errorf("%s: profiled run: %w", w.name, err)
		}
		m.fillZero(PerLayer)
		m.scaleTimes(probe.factor())
	} else {
		segs, err := runSegments(ctx, inst, newWindow(ops, span), rec, probe)
		if err != nil {
			return Result{}, fmt.Errorf("%s: %w", w.name, err)
		}
		if err := inst.verify(ctx, rec); err != nil {
			return Result{}, fmt.Errorf("%s: verify: %w", w.name, err)
		}
		elapsed := atReferenceSpeed(segs, rec, probe)
		lat := append([]float64(nil), rec.lat...)
		m.set("runs_per_s", float64(rec.runs)/elapsed.Seconds())
		m.set("latency_p50_ms", percentile(lat, 0.50))
		m.set("latency_p90_ms", percentile(lat, 0.90))
		m.set("setup_s", median(setups)*probe.localFactor(0))
		rss, err := peakRSSMiB()
		if err != nil {
			return Result{}, err
		}
		m.set("peak_rss_mb", rss)
	}
	if len(rec.lat) == 0 {
		return Result{}, fmt.Errorf("%s: no operation completed", w.name)
	}
	res := Result{
		Correct:    rec.failed == 0,
		Attempted:  len(rec.lat),
		Failed:     rec.failed,
		Metrics:    m,
		HostFactor: probe.factor(),
	}
	for name, v := range m {
		if math.IsInf(v.Value, 1) {
			// A percentile that fell on a failed operation; JSON has no
			// infinity.
			v.Value = math.MaxFloat64
			m[name] = v
		}
	}
	for _, err := range rec.errs {
		res.Failures = append(res.Failures, err.Error())
	}
	return res, ctx.Err()
}

// segment is one stretch of a window: the operations recorded before end
// (an index into recorder.lat) and the wall time the stretch took.
type segment struct {
	end     int
	elapsed time.Duration
}

// runSegments runs the operations w admits in segments, probing the host
// after each while the workload is idle.
func runSegments(ctx context.Context, inst instance, w *window, rec *recorder, probe *hostProbe) ([]segment, error) {
	var segs []segment
	for k := segments; k > 0; k-- {
		start := time.Now()
		if err := inst.run(ctx, w.segment(k), rec); err != nil {
			return nil, err
		}
		segs = append(segs, segment{end: rec.count(), elapsed: time.Since(start)})
		probe.measure()
	}
	return segs, nil
}

// atReferenceSpeed scales the latencies of each segment's operations by
// the host factor around the segment, and returns the window's duration
// at reference host speed.
func atReferenceSpeed(segs []segment, rec *recorder, probe *hostProbe) time.Duration {
	var total float64
	first := 0
	for k, s := range segs {
		f := probe.localFactor(k)
		for i := first; i < s.end; i++ {
			rec.lat[i] *= f
		}
		total += float64(s.elapsed) * f
		first = s.end
	}
	return time.Duration(total)
}

// recorder collects the operations of a run. Safe for concurrent use.
type recorder struct {
	mu sync.Mutex
	// lat is each operation's latency in ms, +Inf for a failed one.
	lat []float64
	// runs counts the simulation results successful operations delivered.
	runs   int
	failed int
	// errs keeps the first failures for diagnostics.
	errs []error
}

const keptErrors = 5

// op records one operation that delivered runs results, or failed with
// err, and returns its index.
func (r *recorder) op(d time.Duration, runs int, err error) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.lat = append(r.lat, math.Inf(1))
		r.noteFailure(err)
	} else {
		r.lat = append(r.lat, ms(d))
		r.runs += runs
	}
	return len(r.lat) - 1
}

// fail marks operation i, which had delivered runs results, as failed
// after the fact: a check that only runs after the timed window found its
// output wrong.
func (r *recorder) fail(i, runs int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if math.IsInf(r.lat[i], 1) {
		return
	}
	r.lat[i] = math.Inf(1)
	r.runs -= runs
	r.noteFailure(err)
}

// count returns the number of operations recorded.
func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.lat)
}

func (r *recorder) noteFailure(err error) {
	r.failed++
	if len(r.errs) < keptErrors {
		r.errs = append(r.errs, err)
	}
}

// window admits the operations of one timed loop: n of them, or fewer if
// windowSlack times their nominal span passes first. Safe for concurrent
// use.
type window struct {
	mu       sync.Mutex
	left     int
	deadline time.Time
}

// windowSlack is how much longer than nominal a window may run before it
// closes early, keeping a slow host within the benchmark's time budget.
const windowSlack = 2

// newWindow admits n operations nominally taking span.
func newWindow(n int, span time.Duration) *window {
	return &window{left: n, deadline: time.Now().Add(time.Duration(windowSlack * float64(span)))}
}

// segment carves the next of parts equal shares out of w's remaining
// operations, as a window with w's deadline.
func (w *window) segment(parts int) *window {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := (w.left + parts - 1) / parts
	w.left -= n
	return &window{left: n, deadline: w.deadline}
}

// once admits exactly one operation (a warm-up).
func once() *window { return newWindow(1, time.Hour) }

// take admits one more operation, or reports that the window is closed.
func (w *window) take() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.left <= 0 || !time.Now().Before(w.deadline) {
		return false
	}
	w.left--
	return true
}
