package bench

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"raccd/client"
	"raccd/internal/resultstore"
	"raccd/internal/service"
	"raccd/internal/service/exec"
	"raccd/internal/sim"
	"raccd/internal/workloads"
)

// The two serving workloads run raccdd in-process: service.New behind a
// loopback HTTP server, driven through raccd/client by closed-loop
// clients — real callers (sweep -remote, the coordinator) wait for each
// reply before sending the next request.

// poolScale is the problem scale of the warm pool: the Fig 2 runs every
// serving workload warms into its result stores during set-up.
const poolScale = 0.25

// daemon is one in-process raccdd.
type daemon struct {
	srv *service.Server
	hs  *httptest.Server
	c   *client.Client
}

// startDaemon starts a daemon storing results under dir, listening on
// addr when it is free and on any loopback port otherwise; with workers
// it is a coordinator over those daemons.
func startDaemon(dir, addr string, workers []string) (*daemon, error) {
	st, err := resultstore.Open(dir)
	if err != nil {
		return nil, err
	}
	srv, err := service.New(service.Options{Store: st, Workers: workers})
	if err != nil {
		return nil, err
	}
	hs := httptest.NewUnstartedServer(srv.Handler())
	if l, err := net.Listen("tcp", addr); err == nil {
		hs.Listener.Close()
		hs.Listener = l
	}
	hs.Start()
	return &daemon{srv: srv, hs: hs, c: client.New(hs.URL)}, nil
}

// close drains the daemon's jobs, then stops its HTTP server.
func (d *daemon) close(ctx context.Context) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 30*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx) // an error means the drain was cut short; nothing is left to wait for
	d.hs.Close()
}

// callTimes collects per-call latencies and job phases in a traced run.
type callTimes struct {
	mu                   sync.Mutex
	submit, wait, result []float64
	// phases holds each job's nonzero phases in ms; fabricPerRun each
	// batch's remote round-trip time per run.
	phases       map[string][]float64
	fabricPerRun []float64
}

func newCallTimes() *callTimes { return &callTimes{phases: map[string][]float64{}} }

// job submits through submit, waits for the job and fetches its CSV,
// recording the three calls' latencies and the job's phases in ct when
// it is non-nil.
func job(ctx context.Context, c *client.Client, runs int, ct *callTimes,
	submit func(ctx context.Context) (client.Status, error)) (string, error) {
	t0 := time.Now()
	st, err := submit(ctx)
	if err != nil {
		return "", err
	}
	t1 := time.Now()
	fin, err := c.Wait(ctx, st.ID, nil)
	if err != nil {
		return "", err
	}
	if fin.State != "done" {
		return "", fmt.Errorf("job %s %s: %s", st.ID, fin.State, fin.Error)
	}
	t2 := time.Now()
	csv, err := c.Result(ctx, st.ID)
	if err != nil {
		return "", err
	}
	if ct != nil {
		ct.mu.Lock()
		ct.submit = append(ct.submit, ms(t1.Sub(t0)))
		ct.wait = append(ct.wait, ms(t2.Sub(t1)))
		ct.result = append(ct.result, ms(time.Since(t2)))
		ct.addPhases(fin.Phases, runs)
		ct.mu.Unlock()
	}
	return csv, nil
}

// addPhases records a job's phases (seconds on the wire). Called with mu
// held.
func (ct *callTimes) addPhases(phases map[string]float64, runs int) {
	for name, sec := range phases {
		if sec > 0 {
			ct.phases[name] = append(ct.phases[name], sec*1000)
		}
	}
	if sec := phases["fabric_rtt"]; sec > 0 {
		ct.fabricPerRun = append(ct.fabricPerRun, sec*1000/float64(runs))
	}
}

// set records the client call latencies and the p50 of each phase.
func (ct *callTimes) set(m Metrics, jobPhases map[string][]float64) {
	p50 := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return percentile(append([]float64(nil), xs...), 0.5)
	}
	m.set("client.submit_ms", p50(ct.submit))
	m.set("client.wait_ms", p50(ct.wait))
	m.set("client.result_ms", p50(ct.result))
	m.set("queue.wait_ms", p50(ct.phases["queue_wait"]))
	m.set("fabric.rtt_ms", p50(ct.fabricPerRun))
	m.set("exec.build_ms", p50(jobPhases["build"]))
	m.set("exec.exec_ms", p50(jobPhases["exec"]))
	m.set("store.ms", p50(jobPhases["store"]))
}

// workerPhases lists the phases (ms, nonzero only) of every job d
// created at or after since.
func workerPhases(ctx context.Context, d *daemon, since time.Time, into map[string][]float64) error {
	jobs, err := d.c.Jobs(ctx)
	if err != nil {
		return err
	}
	for _, j := range jobs {
		if j.Created.Before(since) {
			continue
		}
		names := make([]string, 0, len(j.Phases))
		for name := range j.Phases {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if sec := j.Phases[name]; sec > 0 {
				into[name] = append(into[name], sec*1000)
			}
		}
	}
	return nil
}

// probeStore times direct result-store calls: a hit on a warm key, and a
// write through GetOrCompute of a fresh key whose computation returns res.
func probeStore(dir string, res sim.Result, m Metrics) error {
	st, err := resultstore.Open(dir)
	if err != nil {
		return err
	}
	warm := resultstore.KeyOf("bench-probe", "warm")
	if err := st.Put(warm, res); err != nil {
		return err
	}
	precomputed := func() (sim.Result, error) { return res, nil }
	const hits, writes = 400, 100
	hit := make([]float64, hits)
	for i := range hit {
		start := time.Now()
		if _, cached, err := st.GetOrCompute(warm, precomputed); err != nil || !cached {
			return fmt.Errorf("warm key missed the store (err %v)", err)
		}
		hit[i] = float64(time.Since(start)) / float64(time.Microsecond)
	}
	write := make([]float64, writes)
	for i := range write {
		key := resultstore.KeyOf("bench-probe", fmt.Sprintf("fresh-%d", i))
		start := time.Now()
		if _, cached, err := st.GetOrCompute(key, precomputed); err != nil || cached {
			return fmt.Errorf("fresh key hit the store (err %v)", err)
		}
		write[i] = ms(time.Since(start))
	}
	m.set("resultstore.hit_us", median(hit))
	m.set("resultstore.write_ms", median(write))
	return nil
}

// simulateLocal runs req in this process, outside every serving layer.
func simulateLocal(ctx context.Context, req client.RunRequest) (sim.Result, error) {
	cfg, err := exec.BuildConfig(req, "", 0)
	if err != nil {
		return sim.Result{}, err
	}
	w, err := workloads.Get(req.Workload, exec.Scale(req))
	if err != nil {
		return sim.Result{}, err
	}
	return sim.RunContext(ctx, w, cfg)
}

// warmPool loads the Fig 2 pool into d's stores as one batch and checks
// the merged CSV against the reference.
func warmPool(ctx context.Context, d *daemon, pool []client.RunRequest, ref reference) error {
	csv, err := job(ctx, d.c, len(pool), nil, func(ctx context.Context) (client.Status, error) {
		return d.c.SubmitBatch(ctx, client.BatchRequest{Runs: pool})
	})
	if err != nil {
		return fmt.Errorf("warming the pool: %w", err)
	}
	if err := ref.checkCSV(csv, len(pool)); err != nil {
		return fmt.Errorf("warming the pool: %w", err)
	}
	return nil
}

// serve-warm: a daemon whose store already holds every requested result.
// Two closed-loop clients each send SubmitRun → Wait → Result for a Fig 2
// run drawn by the seed; the simulator does nothing, so the cost is all
// per-run HTTP, queue, SSE and result-store hits. One operation is one
// request.

// serveClients is the closed loop's client count.
const serveClients = 2

type serveWarm struct {
	d     *daemon
	pool  []client.RunRequest
	ref   reference
	seed  int64
	loops int64 // closed loops started, to give each its own draw sequence
	dir   string
}

func setupServeWarm(ctx context.Context, e *env) (instance, error) {
	ref, err := loadReference(refFig2Small)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(filepath.Join(e.dir, "store"), "127.0.0.1:0", nil)
	if err != nil {
		return nil, err
	}
	s := &serveWarm{d: d, pool: fig2Requests(poolScale), ref: ref, seed: e.seed, dir: e.dir}
	if err := warmPool(ctx, d, s.pool, ref); err != nil {
		d.close(ctx)
		return nil, err
	}
	warm := &recorder{}
	if err := s.loop(ctx, once(), warm, nil); err != nil || warm.failed > 0 {
		d.close(ctx)
		return nil, fmt.Errorf("warm-up request: %v %v", err, warm.errs)
	}
	return s, nil
}

// request is one operation: a seed-drawn pool run, end to end.
func (s *serveWarm) request(ctx context.Context, rng *rand.Rand, ct *callTimes) error {
	req := s.pool[rng.Intn(len(s.pool))]
	csv, err := job(ctx, s.d.c, 1, ct, func(ctx context.Context) (client.Status, error) {
		return s.d.c.SubmitRun(ctx, req)
	})
	if err != nil {
		return err
	}
	return s.ref.checkCSV(csv, 1)
}

// loop runs serveClients closed-loop clients sending the requests w
// admits.
func (s *serveWarm) loop(ctx context.Context, w *window, rec *recorder, ct *callTimes) error {
	s.loops++
	var wg sync.WaitGroup
	for g := 0; g < serveClients; g++ {
		rng := rand.New(rand.NewSource(s.seed*1_000_003 + s.loops*serveClients + int64(g)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w.take() {
				start := time.Now()
				err := s.request(ctx, rng, ct)
				if ctx.Err() != nil {
					return
				}
				rec.op(time.Since(start), 1, err)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

func (s *serveWarm) run(ctx context.Context, w *window, rec *recorder) error {
	return s.loop(ctx, w, rec, nil)
}

func (s *serveWarm) verify(context.Context, *recorder) error { return nil }

// layers times each call of ops requests, reads the phases the daemon
// reports per job, and probes the result store.
func (s *serveWarm) layers(ctx context.Context, budget time.Duration, ops int, rec *recorder, m Metrics) error {
	before, err := s.d.c.ServerStats(ctx)
	if err != nil {
		return err
	}
	ct := newCallTimes()
	if err := s.loop(ctx, newWindow(ops, budget), rec, ct); err != nil {
		return err
	}
	after, err := s.d.c.ServerStats(ctx)
	if err != nil {
		return err
	}
	ct.set(m, ct.phases)
	hits := after.CacheHits - before.CacheHits
	m.set("resultstore.hit_ratio", ratio(hits, hits+after.CacheMisses-before.CacheMisses))
	jobs, err := s.d.c.Jobs(ctx)
	if err != nil {
		return err
	}
	m.set("service.jobs_retained", float64(len(jobs)))
	res, err := simulateLocal(ctx, s.pool[0])
	if err != nil {
		return err
	}
	return probeStore(filepath.Join(s.dir, "probe"), res, m)
}

func (s *serveWarm) close(ctx context.Context) { s.d.close(ctx) }
