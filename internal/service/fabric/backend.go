// Package fabric is the distribution layer of the simulation service
// and the only way raccdd executes runs: a transport seam (Backend)
// over which a batch of runs executes either in-process (Local, wrapping
// the exec layer) or on another raccdd daemon as one job (Remote,
// wrapping raccd/client), and a Coordinator that partitions every job's
// runs across backends by rendezvous-hashing each run's (configuration
// fingerprint, workload identity) pair, one batch per backend.
//
// The hashing is what makes dedupe global without any shared state:
// identical runs — no matter which client submitted them, or when —
// always land on the same backend, so that backend's content-addressed
// store single-flights them down to one simulation. Results and
// progress are merged in spec order, so a distributed sweep reproduces
// a local one byte-identically.
package fabric

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"raccd/client"
	"raccd/internal/obs"
	"raccd/internal/report"
	"raccd/internal/resultstore"
	"raccd/internal/runner"
	"raccd/internal/service/exec"
	"raccd/internal/sim"
	"raccd/internal/workloads"
)

// Spec is one run of a batch: the wire request to forward, the checked
// configuration it materializes to, the identity pair the coordinator
// partitions and dedupes by, and the name its result row carries. Build
// with NewSpec so the pair is always the one the result store keys by.
type Spec struct {
	// Request is the validated wire request: Remote forwards it, Local
	// reads its workload and scale.
	Request client.RunRequest
	// Config is the checked sim.Config the request materializes to;
	// Local executes it.
	Config sim.Config
	// Fingerprint is Config.Fingerprint().
	Fingerprint string
	// Identity is workloads.Identity of the request's workload at its
	// resolved scale.
	Identity string
	// Row is the workload name of the run's result row: a benchmark's
	// name, a synth: spec's canonical spec, or a trace header's name.
	Row string
}

// Key is the identity the run is partitioned and cached by — the same
// string resultstore.KeyOf hashes, so "lands on the same backend"
// and "hits the same cache object" are one property.
func (s Spec) Key() string { return s.Fingerprint + " | " + s.Identity }

// NewSpec validates and materializes a wire request into a Spec. The
// error is the same the daemon's submit validation would return.
func NewSpec(req client.RunRequest) (Spec, error) {
	return newSpec(req, new(workloads.Identities))
}

// NewSpecs is NewSpec over the runs of one request; the error names the
// first invalid run by its index. It resolves each distinct (workload,
// scale) identity once: a trace: identity reads, parses and hashes the
// whole file, so runs that share a trace do that once between them.
func NewSpecs(reqs []client.RunRequest) ([]Spec, error) {
	ids := new(workloads.Identities)
	specs := make([]Spec, len(reqs))
	for i, req := range reqs {
		spec, err := newSpec(req, ids)
		if err != nil {
			return nil, fmt.Errorf("run %d: %w", i, err)
		}
		specs[i] = spec
	}
	return specs, nil
}

// newSpec is NewSpec with the workload identity and row name taken
// from, or added to, ids.
func newSpec(req client.RunRequest, ids *workloads.Identities) (Spec, error) {
	cfg, err := exec.BuildConfig(req, "", 0)
	if err != nil {
		return Spec{}, err
	}
	id, row, err := ids.Resolve(req.Workload, exec.Scale(req))
	if err != nil {
		return Spec{}, err
	}
	return Spec{Request: req, Config: cfg, Fingerprint: cfg.Fingerprint(), Identity: id, Row: row}, nil
}

// Backend executes a batch of runs somewhere — in this process or
// across the network. Implementations must be safe for concurrent Run
// calls.
type Backend interface {
	// Name identifies the backend; it is the rendezvous-hash input, so
	// it must be stable across restarts for cache locality to persist
	// (Remote uses the worker URL).
	Name() string
	// Run executes the specs and returns one result per spec, in spec
	// order. It calls progress(i, line) once per spec with the run's
	// progress line, in spec order, as the runs complete.
	Run(ctx context.Context, specs []Spec, progress func(i int, line string)) ([]sim.Result, error)
}

// Local executes runs in-process through the exec layer — the backend a
// single daemon is, and the degenerate one-node fabric. Each simulation
// holds one of its slots, shared by every Run call.
type Local struct {
	name  string
	slots chan struct{}
	// run is the executor's Run; tests stand in for the simulation.
	run func(ctx context.Context, cfg sim.Config, key resultstore.Key, workload string, scale float64) (sim.Result, bool, error)
}

// NewLocal wraps an executor as a Backend that runs at most inFlight
// simulations at once (<= 0 selects one per CPU).
func NewLocal(name string, ex *exec.Executor, inFlight int) *Local {
	if inFlight <= 0 {
		inFlight = runtime.GOMAXPROCS(0)
	}
	return &Local{name: name, slots: make(chan struct{}, inFlight), run: ex.Run}
}

// Name implements Backend.
func (l *Local) Name() string { return l.name }

// localRun is one finished run of a Local batch.
type localRun struct {
	res    sim.Result
	cached bool
}

// Run implements Backend: the specs fan out through runner.Run, each
// executed through the store under the key NewSpec derived once it
// holds one of l's slots. It tells its job's phases how long each run
// waited for its slot (obs.Phases.Waited) and when its result is back
// (Ran).
func (l *Local) Run(ctx context.Context, specs []Spec, progress func(i int, line string)) ([]sim.Result, error) {
	ph := obs.PhasesFrom(ctx)
	out := make([]sim.Result, len(specs))
	err := runner.Run(ctx, cap(l.slots), len(specs),
		func(ctx context.Context, i int) (localRun, error) {
			t0 := time.Now()
			s := specs[i]
			key := resultstore.KeyOf(s.Fingerprint, s.Identity)
			select {
			case l.slots <- struct{}{}:
			case <-ctx.Done():
				return localRun{}, ctx.Err()
			}
			ph.Waited(t0)
			defer func() { <-l.slots }()
			res, cached, err := l.run(ctx, s.Config, key, s.Request.Workload, exec.Scale(s.Request))
			if err != nil {
				return localRun{}, fmt.Errorf("fabric: run %d (%s): %w", i, s.Key(), err)
			}
			ph.Ran()
			return localRun{res: res, cached: cached}, nil
		},
		func(i int, r localRun) {
			out[i] = r.res
			progress(i, report.KeyOf(r.res).ProgressLine(r.res.Cycles, r.cached))
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}
