package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"raccd"
	"raccd/client"
	"raccd/internal/obs" //raccd:layering-ok mints the fleet-wide trace ID workers must share; client deliberately redeclares rather than exports it
	"raccd/internal/report"
	"raccd/internal/service/fabric"
)

// Transient daemon hiccups (503 queue-full, connection refused during a
// restart) are retried with jittered backoff instead of failing the
// whole sweep.
const (
	remoteRetries = 3
	remoteBackoff = 200 * time.Millisecond
)

// runRemote executes the matrix on one raccdd daemon instead of
// simulating locally: the whole matrix goes out as a single POST
// /v1/batch. A plain daemon simulates every run itself; a coordinator
// (raccdd -workers) rendezvous-partitions the runs across its workers,
// so identical runs dedupe in their home worker's cache fleet-wide. The
// returned CSV re-indexes into a Set whose figures and CSV() are
// byte-identical to a local sweep of the same matrix.
func runRemote(ctx context.Context, m report.Matrix, machineName, endpoint string) (*report.Set, error) {
	specs, err := fabric.SpecsFromMatrix(m, machineName)
	if err != nil {
		return nil, err
	}
	rows, err := rowNames(m)
	if err != nil {
		return nil, err
	}

	// One trace ID covers the whole sweep: the daemon (and, behind a
	// coordinator, every worker) stamps it on its jobs and logs, so one
	// grep follows this invocation across the fleet
	// (docs/OBSERVABILITY.md).
	trace := obs.NewTraceID()
	ctx = obs.WithTrace(ctx, trace)

	remote := fabric.NewRemote(endpoint, client.WithRetry(remoteRetries, remoteBackoff))
	csv, err := remote.RunBatch(ctx, specs, m.Progress)
	if err != nil {
		return nil, fmt.Errorf("%w (trace %s)", err, trace)
	}

	// The batch CSV is sorted in CSV row order; re-index and re-insert in
	// matrix order so figure row order (which follows first insertion)
	// matches a local sweep exactly.
	parsed, err := report.ParseCSV(strings.NewReader(csv))
	if err != nil {
		return nil, fmt.Errorf("%s: parsing results: %w", endpoint, err)
	}
	set := report.NewSet(nil)
	for _, k := range m.Keys() {
		res, ok := parsed.Get(rows[k.Workload], k.System, k.Ratio, k.ADR)
		if !ok {
			return nil, fmt.Errorf("%s: results missing %v", endpoint, k)
		}
		set.Add(res)
	}
	return set, nil
}

// rowNames maps each of m's workloads to the name its results carry —
// the built workload's own name, so a "trace:<path>" workload's rows go
// by the name in the trace header, as they do in a local sweep.
func rowNames(m report.Matrix) (map[string]string, error) {
	rows := make(map[string]string, len(m.Workloads))
	for _, name := range m.Workloads {
		w, err := raccd.NewWorkload(name, m.Scale)
		if err != nil {
			return nil, err
		}
		rows[name] = w.Name()
	}
	return rows, nil
}
