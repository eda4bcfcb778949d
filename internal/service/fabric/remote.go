package fabric

import (
	"context"
	"encoding/json"
	"fmt"

	"raccd/client"
	"raccd/internal/obs"
)

// Remote executes runs on another raccdd daemon over its HTTP API:
// submit the run, follow its SSE event stream (forwarding progress
// lines), fetch the result CSV. It is how a coordinator daemon reaches
// its workers and `sweep -remote` reaches its daemon.
type Remote struct {
	name string
	c    *client.Client
}

// NewRemote returns a backend for the daemon at baseURL. The URL is the
// backend's rendezvous name: keep worker URLs stable across restarts
// and every coordinator maps the same run to the same worker, which is
// what makes dedupe global. Pass client.WithRetry so a briefly
// saturated worker (503, connection refused) is re-attempted instead of
// failing the whole batch.
func NewRemote(baseURL string, opts ...client.Option) *Remote {
	return &Remote{name: baseURL, c: client.New(baseURL, opts...)}
}

// Name implements Backend.
func (r *Remote) Name() string { return r.name }

// CheckHealth implements the coordinator's HealthChecker: one GET
// /healthz against the worker.
func (r *Remote) CheckHealth(ctx context.Context) error {
	return r.c.Health(ctx)
}

// bridgeTrace carries the fabric context's trace ID over to the client
// package's own context key, so every forwarded request goes out with
// the coordinator's X-Raccd-Trace header. (The client package is
// dependency-free by contract, so it cannot read obs's key itself.)
func bridgeTrace(ctx context.Context) context.Context {
	if id := obs.Trace(ctx); id != "" {
		return client.WithTraceID(ctx, id)
	}
	return ctx
}

// jobRef names a worker job in an error message, quoting the worker's
// trace ID when it reported one so users can grep the worker's log.
func jobRef(id string, st client.Status) string {
	if st.TraceID != "" {
		return id + " (trace " + st.TraceID + ")"
	}
	return id
}

// RunBatch submits specs to the daemon as one POST /v1/batch job, waits
// it to completion forwarding progress lines, and returns the worker's
// merged CSV. It is the bulk counterpart of Run, used by `sweep -remote`
// to ship a whole sweep matrix in one job.
func (r *Remote) RunBatch(ctx context.Context, specs []Spec, progress func(line string)) (string, error) {
	req := client.BatchRequest{Runs: make([]client.RunRequest, len(specs))}
	for i, s := range specs {
		req.Runs[i] = s.Request
	}
	return r.roundTrip(bridgeTrace(ctx), func(ctx context.Context) (client.Status, error) {
		return r.c.SubmitBatch(ctx, req)
	}, progress)
}

// Run implements Backend: one run forwarded end to end. The whole round
// trip — submit, stream, fetch — is the run's fabric_rtt phase.
func (r *Remote) Run(ctx context.Context, spec Spec) (string, []string, error) {
	ctx = bridgeTrace(ctx)
	defer obs.PhasesFrom(ctx).Start(obs.PhaseFabric)()
	var lines []string
	csv, err := r.roundTrip(ctx, func(ctx context.Context) (client.Status, error) {
		return r.c.SubmitRun(ctx, spec.Request)
	}, func(line string) { lines = append(lines, line) })
	if err != nil {
		return "", nil, err
	}
	return csv, lines, nil
}

// roundTrip drives one worker job: submit it, follow its event stream
// handing each progress line to progress (nil drops them), and fetch
// its result CSV once it is done.
func (r *Remote) roundTrip(ctx context.Context, submit func(context.Context) (client.Status, error), progress func(line string)) (string, error) {
	st, err := submit(ctx)
	if err != nil {
		return "", fmt.Errorf("worker %s: %w", r.name, err)
	}
	fin, err := r.c.Wait(ctx, st.ID, func(e client.Event) {
		if e.Type != "progress" || progress == nil {
			return
		}
		var p struct {
			Line string `json:"line"`
		}
		if json.Unmarshal(e.Data, &p) == nil && p.Line != "" {
			progress(p.Line)
		}
	})
	if err != nil {
		return "", fmt.Errorf("worker %s: waiting on %s: %w", r.name, jobRef(st.ID, fin), err)
	}
	if fin.State != "done" {
		return "", fmt.Errorf("worker %s: job %s %s: %s", r.name, jobRef(st.ID, fin), fin.State, fin.Error)
	}
	csv, err := r.c.Result(ctx, st.ID)
	if err != nil {
		return "", fmt.Errorf("worker %s: result of %s: %w", r.name, jobRef(st.ID, st), err)
	}
	return csv, nil
}
