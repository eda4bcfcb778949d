// Package fabric is the distribution layer of the simulation service
// and the only way raccdd executes runs: a transport seam (Backend)
// over which one run executes either in-process (Local, wrapping the
// exec layer) or on another raccdd daemon (Remote, wrapping
// raccd/client), and a Coordinator that partitions runs, batches and
// expanded sweeps across backends by rendezvous-hashing each run's
// (configuration fingerprint, workload identity) pair. The coordinator
// keeps at most a fixed number of runs in flight on each backend,
// shared by every job it serves.
//
// The hashing is what makes dedupe global without any shared state:
// identical runs — no matter which client submitted them, or when —
// always land on the same backend, so that backend's content-addressed
// store single-flights them down to one simulation. Results come back
// as per-run report CSV and are merged in deterministic order, so a
// distributed sweep reproduces a local one byte-identically.
package fabric

import (
	"context"
	"fmt"

	"raccd/client"
	"raccd/internal/report"
	"raccd/internal/resultstore"
	"raccd/internal/service/exec"
	"raccd/internal/sim"
	"raccd/internal/workloads"
)

// Spec is one run of a batch: the wire request to forward, the checked
// configuration it materializes to, and the identity pair the
// coordinator partitions and dedupes by. Build with NewSpec so the pair
// is always the one the result store keys by.
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

// newSpec is NewSpec with the workload identity taken from, or added to,
// ids.
func newSpec(req client.RunRequest, ids *workloads.Identities) (Spec, error) {
	cfg, err := exec.BuildConfig(req, "", 0)
	if err != nil {
		return Spec{}, err
	}
	id, err := ids.Identity(req.Workload, exec.Scale(req))
	if err != nil {
		return Spec{}, err
	}
	return Spec{Request: req, Config: cfg, Fingerprint: cfg.Fingerprint(), Identity: id}, nil
}

// Backend executes one run of a batch somewhere — in this process or
// across the network. Implementations must be safe for concurrent Run
// calls.
type Backend interface {
	// Name identifies the backend; it is the rendezvous-hash input, so
	// it must be stable across restarts for cache locality to persist
	// (Remote uses the worker URL).
	Name() string
	// Run executes the spec and returns its single-run report CSV
	// (header + one row) plus the per-run progress lines the execution
	// emitted, for the coordinator to merge into its own event log.
	Run(ctx context.Context, spec Spec) (csv string, progress []string, err error)
}

// Local executes runs in-process through the exec layer — the backend a
// single daemon is, and the degenerate one-node fabric. Byte-identical
// to the daemon's own run jobs by construction: it is the same code.
type Local struct {
	name string
	ex   *exec.Executor
}

// NewLocal wraps an executor as a Backend.
func NewLocal(name string, ex *exec.Executor) *Local {
	return &Local{name: name, ex: ex}
}

// Name implements Backend.
func (l *Local) Name() string { return l.name }

// Run implements Backend: execute the spec's checked configuration
// through the store, under the key NewSpec derived.
func (l *Local) Run(ctx context.Context, spec Spec) (string, []string, error) {
	key := resultstore.KeyOf(spec.Fingerprint, spec.Identity)
	csv, res, cached, err := l.ex.Run(ctx, spec.Config, key, spec.Request.Workload, exec.Scale(spec.Request))
	if err != nil {
		return "", nil, err
	}
	return csv, []string{report.KeyOf(res).ProgressLine(res.Cycles, cached)}, nil
}
