package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"raccd/client"
	"raccd/internal/obs"
	"raccd/internal/report"
	"raccd/internal/sim"
)

// Remote executes runs on another raccdd daemon over its HTTP API, a
// batch as one POST /v1/batch worker job. It is how a coordinator
// daemon reaches its workers and `sweep -remote` reaches its daemon. It
// keeps no bound of its own: a coordinator job sends each worker at
// most one worker job, so the coordinator's admission queue bounds its
// outstanding jobs on a worker, and the worker's own slots bound their
// simulations.
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

// jobRef names a worker job in an error message, quoting the worker's
// trace ID when it reported one so users can grep the worker's log.
func jobRef(id string, st client.Status) string {
	if st.TraceID != "" {
		return id + " (trace " + st.TraceID + ")"
	}
	return id
}

// Run implements Backend: the specs go to the daemon as one batch job:
// submit it, follow its event stream handing each progress line on with
// its run's index, and fetch its result CSV, the whole round trip one
// fabric_rtt phase (the hand-off before it is a wait, obs.Phases.Waited).
// A worker keeps only its most recently finished jobs, so a job can
// expire before its result is fetched; then Run submits it once more
// (the worker's store answers it without simulating) and hands on only
// the lines the first job did not. Each spec's result is the worker's CSV row under
// its row key (row name, system, ratio, ADR), so runs that share one
// all get the row the worker's merge kept, the last such run's.
func (r *Remote) Run(ctx context.Context, specs []Spec, progress func(i int, line string)) ([]sim.Result, error) {
	ph := obs.PhasesFrom(ctx)
	ph.Waited(time.Now())
	defer ph.Start(obs.PhaseFabric)()

	// The client package is dependency-free by contract, so it cannot
	// read obs's trace key: carry the trace ID over to its own, and every
	// forwarded request goes out with the coordinator's X-Raccd-Trace.
	if id := obs.Trace(ctx); id != "" {
		ctx = client.WithTraceID(ctx, id)
	}
	req := client.BatchRequest{Runs: make([]client.RunRequest, len(specs))}
	for i, s := range specs {
		req.Runs[i] = s.Request
	}
	forwarded := 0
	csv, err := r.try(ctx, req, progress, &forwarded)
	if errors.Is(err, client.ErrExpired) {
		csv, err = r.try(ctx, req, progress, &forwarded)
	}
	if err != nil {
		return nil, err
	}
	set, err := report.ParseCSV(strings.NewReader(csv))
	if err != nil {
		return nil, fmt.Errorf("worker %s: %w", r.name, err)
	}
	out := make([]sim.Result, len(specs))
	for i, s := range specs {
		k := report.Key{Workload: s.Row, System: s.Config.System, Ratio: s.Config.DirRatio, ADR: s.Config.ADR}
		res, ok := set.Get(k.Workload, k.System, k.Ratio, k.ADR)
		if !ok {
			return nil, fmt.Errorf("worker %s: results missing run %d (%v)", r.name, i, k)
		}
		out[i] = res
	}
	return out, nil
}

// try is one attempt of Run's worker job. forwarded counts the progress
// lines handed on so far across attempts; an attempt hands on the lines
// past that count.
func (r *Remote) try(ctx context.Context, req client.BatchRequest, progress func(i int, line string), forwarded *int) (string, error) {
	st, err := r.c.SubmitBatch(ctx, req)
	if err != nil {
		return "", fmt.Errorf("worker %s: %w", r.name, err)
	}
	seen := 0
	fin, err := r.c.Wait(ctx, st.ID, func(e client.Event) {
		if e.Type != "progress" {
			return
		}
		var p struct {
			Line string `json:"line"`
		}
		if json.Unmarshal(e.Data, &p) != nil || p.Line == "" {
			return
		}
		if seen++; seen > *forwarded {
			*forwarded = seen
			progress(seen-1, p.Line)
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
