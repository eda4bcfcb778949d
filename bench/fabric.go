package bench

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"raccd/client"
	"raccd/internal/workloads/synth"
)

// fabric-mixed: a coordinator over two worker daemons, all in-process,
// and one closed-loop client submitting /v1/batch jobs. Each batch mixes
// runs drawn from the warm pool (store reads) with fresh seeded synth:
// runs (cold simulations plus store writes), so it uses the serving
// layers serve-warm uses, differently: writes beside reads, two HTTP hops,
// rendezvous scatter and in-order merge. One operation is one batch.

// Batch composition.
const (
	poolPerBatch  = 24
	freshPerBatch = 8
	batchRuns     = poolPerBatch + freshPerBatch
	// recheckEvery is how often a fresh run is recomputed locally after
	// the timed window: every recheckEvery-th fresh run.
	recheckEvery  = 8
	fabricWorkers = 2
	// workerPort is where the workers listen when the ports are free. The
	// coordinator routes runs by rendezvous hash of the worker URLs, so
	// fixed URLs give every run the same split of the pool between the
	// workers.
	workerPort = 47301
)

// freshSize is the synthetic graph of every fresh run.
type freshSize struct{ width, depth, blocks, shared int }

var (
	freshNormal = freshSize{width: 8, depth: 8, blocks: 16, shared: 128}
	freshShort  = freshSize{width: 4, depth: 2, blocks: 4, shared: 16}
)

var freshSystems = []string{"FullCoh", "PT", "RaCCD"}

type fabricMixed struct {
	workers []*daemon
	coord   *daemon
	pool    []client.RunRequest
	ref     reference
	rng     *rand.Rand
	size    freshSize
	// freshBase and fresh number the fresh runs: each batch's synth
	// seeds are new, so its fresh runs miss every store.
	freshBase, fresh int64
	// rechecks are the fresh runs verify recomputes locally.
	rechecks []recheck
	dir      string
}

// recheck is one fresh run of a batch: what was asked and what came back.
type recheck struct {
	op  int
	req client.RunRequest
	row string
}

func setupFabric(ctx context.Context, e *env) (instance, error) {
	ref, err := loadReference(refFig2Small)
	if err != nil {
		return nil, err
	}
	f := &fabricMixed{
		pool:      fig2Requests(poolScale),
		ref:       ref,
		rng:       rand.New(rand.NewSource(e.seed)),
		size:      freshNormal,
		freshBase: e.seed * 1_000_000_000,
		dir:       e.dir,
	}
	if e.short {
		f.size = freshShort
	}
	urls := make([]string, fabricWorkers)
	for i := range urls {
		d, err := startDaemon(filepath.Join(e.dir, fmt.Sprintf("worker%d", i)), fmt.Sprintf("127.0.0.1:%d", workerPort+i), nil)
		if err != nil {
			f.close(ctx)
			return nil, err
		}
		f.workers = append(f.workers, d)
		urls[i] = d.hs.URL
	}
	if f.coord, err = startDaemon(filepath.Join(e.dir, "coordinator"), "127.0.0.1:0", urls); err != nil {
		f.close(ctx)
		return nil, err
	}
	if err := warmPool(ctx, f.coord, f.pool, ref); err != nil {
		f.close(ctx)
		return nil, err
	}
	warm := &recorder{}
	if err := f.run(ctx, once(), warm); err != nil || warm.failed > 0 {
		f.close(ctx)
		return nil, fmt.Errorf("warm-up batch: %v %v", err, warm.errs)
	}
	f.rechecks = nil
	return f, nil
}

// freshRun returns the next never-submitted run.
func (f *fabricMixed) freshRun() client.RunRequest {
	f.fresh++
	p, _ := synth.Default("mixed") // a preset that always exists
	p.Seed = f.freshBase + f.fresh
	p.Width, p.Depth, p.BlocksPerTask, p.SharedBlocks = f.size.width, f.size.depth, f.size.blocks, f.size.shared
	return client.RunRequest{Workload: p.Name(), System: freshSystems[f.fresh%int64(len(freshSystems))]}
}

// batch is one operation: a seed-shuffled mix of pool and fresh runs,
// submitted, awaited and checked. It returns the fresh runs to recheck.
func (f *fabricMixed) batch(ctx context.Context, ct *callTimes) ([]recheck, error) {
	runs := make([]client.RunRequest, 0, batchRuns)
	for _, i := range f.rng.Perm(len(f.pool))[:poolPerBatch] {
		runs = append(runs, f.pool[i])
	}
	fresh := map[string]client.RunRequest{}
	var order []string
	for k := 0; k < freshPerBatch; k++ {
		r := f.freshRun()
		runs = append(runs, r)
		key := fmt.Sprintf("%s,%s,1,false", r.Workload, r.System)
		fresh[key] = r
		if f.fresh%recheckEvery == 0 {
			order = append(order, key)
		}
	}
	f.rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
	csv, err := job(ctx, f.coord.c, batchRuns, ct, func(ctx context.Context) (client.Status, error) {
		return f.coord.c.SubmitBatch(ctx, client.BatchRequest{Runs: runs})
	})
	if err != nil {
		return nil, err
	}
	rows, err := parseRows(csv)
	if err != nil {
		return nil, err
	}
	if len(rows) != batchRuns {
		return nil, fmt.Errorf("batch CSV has %d runs, want %d", len(rows), batchRuns)
	}
	for key, row := range rows {
		if _, ok := fresh[key]; ok {
			continue
		}
		if err := f.ref.check(row); err != nil {
			return nil, err
		}
	}
	var out []recheck
	for _, key := range order {
		row, ok := rows[key]
		if !ok {
			return nil, fmt.Errorf("batch CSV lacks fresh run %s", key)
		}
		out = append(out, recheck{req: fresh[key], row: row})
	}
	return out, nil
}

// loop sends the batches w admits.
func (f *fabricMixed) loop(ctx context.Context, w *window, rec *recorder, ct *callTimes) error {
	for w.take() {
		start := time.Now()
		checks, err := f.batch(ctx, ct)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		i := rec.op(time.Since(start), batchRuns, err)
		for _, c := range checks {
			c.op = i
			f.rechecks = append(f.rechecks, c)
		}
	}
	return nil
}

func (f *fabricMixed) run(ctx context.Context, w *window, rec *recorder) error {
	return f.loop(ctx, w, rec, nil)
}

// verify recomputes the sampled fresh runs in this process and fails the
// batch of any whose served output differs.
func (f *fabricMixed) verify(ctx context.Context, rec *recorder) error {
	for _, c := range f.rechecks {
		res, err := simulateLocal(ctx, c.req)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err != nil {
			rec.fail(c.op, batchRuns, fmt.Errorf("recomputing %s: %w", c.req.Workload, err))
		} else if row := resultRow(res); row != c.row {
			rec.fail(c.op, batchRuns, fmt.Errorf("fresh run served\n  %s\nrecomputed\n  %s", c.row, row))
		}
	}
	f.rechecks = nil
	return nil
}

// layers times each call of ops batches, reads the phases the coordinator
// and the workers report per job and the workers' counters, probes the
// result store, and traces fresh runs through the simulator layers.
func (f *fabricMixed) layers(ctx context.Context, budget time.Duration, ops int, rec *recorder, m Metrics) error {
	before, err := f.workerStats(ctx)
	if err != nil {
		return err
	}
	ct := newCallTimes()
	start := time.Now()
	fresh0 := f.fresh
	if err := f.loop(ctx, newWindow(ops, budget), rec, ct); err != nil {
		return err
	}
	if err := f.verify(ctx, rec); err != nil {
		return err
	}
	after, err := f.workerStats(ctx)
	if err != nil {
		return err
	}
	phases := map[string][]float64{}
	for _, w := range f.workers {
		if err := workerPhases(ctx, w, start, phases); err != nil {
			return err
		}
	}
	ct.set(m, phases)

	var hits, misses, sims uint64
	minRuns, maxRuns := ^uint64(0), uint64(0)
	for i := range after {
		hits += after[i].CacheHits - before[i].CacheHits
		misses += after[i].CacheMisses - before[i].CacheMisses
		sims += after[i].SimsRun - before[i].SimsRun
		runs := after[i].RunsCompleted - before[i].RunsCompleted
		minRuns, maxRuns = min(minRuns, runs), max(maxRuns, runs)
	}
	m.set("resultstore.hit_ratio", ratio(hits, hits+misses))
	m.set("fabric.worker_balance", ratio(minRuns, maxRuns))
	m.set("fabric.sims_per_fresh_run", ratio(sims, uint64(f.fresh-fresh0)))
	jobs, err := f.coord.c.Jobs(ctx)
	if err != nil {
		return err
	}
	m.set("service.jobs_retained", float64(len(jobs)))

	reqs := make([]client.RunRequest, 16)
	for i := range reqs {
		reqs[i] = f.freshRun()
	}
	if err := simLayers(ctx, reqs, budget/2, rec, m); err != nil {
		return err
	}
	res, err := simulateLocal(ctx, reqs[0])
	if err != nil {
		return err
	}
	return probeStore(filepath.Join(f.dir, "probe"), res, m)
}

func (f *fabricMixed) workerStats(ctx context.Context) ([]client.Stats, error) {
	out := make([]client.Stats, len(f.workers))
	for i, w := range f.workers {
		st, err := w.c.ServerStats(ctx)
		if err != nil {
			return nil, err
		}
		out[i] = st
	}
	return out, nil
}

// close stops the coordinator before the workers it calls.
func (f *fabricMixed) close(ctx context.Context) {
	if f.coord != nil {
		f.coord.close(ctx)
	}
	for _, w := range f.workers {
		w.close(ctx)
	}
}
