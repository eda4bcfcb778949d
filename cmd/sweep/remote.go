package main

import (
	"context"
	"fmt"
	"time"

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
// results come back in matrix order, so the returned Set's figures and
// CSV() are byte-identical to a local sweep of the same matrix.
func runRemote(ctx context.Context, m report.Matrix, machineName, endpoint string) (*report.Set, error) {
	specs, err := fabric.SpecsFromMatrix(m, machineName)
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
	results, err := remote.Run(ctx, specs, func(_ int, line string) {
		if m.Progress != nil {
			m.Progress(line)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("%w (trace %s)", err, trace)
	}
	return report.NewSet(results), nil
}
