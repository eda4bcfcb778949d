package bench

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"raccd/client"
	"raccd/internal/service/exec"
	"raccd/internal/sim"
	"raccd/internal/tracefile"
	"raccd/internal/workloads"
)

// m64-trace-replay moves the work to the layers fig2-sweep barely
// touches: directory recalls (1:16 and ADR), the 8×8 NoC, building 64
// tiles, the OoO core with its prefetcher, and RTF decoding. Set-up
// records seeded synth:mixed graphs to trace files; every operation loads
// one as a trace: workload and simulates it alone, so an operation's
// latency is single-run latency — the number intra-run parallelism has to
// move.

// m64Size is the synthetic graph every trace is recorded from, sized for
// about 0.1 s per simulation on the 2-CPU machine the benchmark targets;
// a 15-second window is three passes over the 50 runs.
type m64Size struct {
	graphs                       int
	width, depth, blocks, shared int
}

var (
	m64Normal = m64Size{graphs: 10, width: 40, depth: 16, blocks: 32, shared: 1536}
	m64Short  = m64Size{graphs: 2, width: 8, depth: 4, blocks: 8, shared: 64}
)

// m64Configs are the coherence configurations each graph runs under.
var m64Configs = []client.RunRequest{
	{System: "FullCoh", DirRatio: 16},
	{System: "PT", DirRatio: 16},
	{System: "RaCCD", DirRatio: 16},
	{System: "PT", ADR: true},
	{System: "RaCCD", ADR: true},
}

type m64Run struct {
	req client.RunRequest
	cfg sim.Config
}

type m64 struct {
	runs []m64Run
	// ref holds the seed-1 reference outputs; nil for other seeds and
	// sizes, where validation (golden memory plus protocol invariants)
	// and agreement with the run's own first pass are the checks.
	ref  reference
	seen reference
	rng  *rand.Rand
}

func setupM64(ctx context.Context, e *env) (instance, error) {
	size := m64Normal
	if e.short {
		size = m64Short
	}
	runs, err := recordM64(e.seed, size, e.dir)
	if err != nil {
		return nil, err
	}
	x := &m64{runs: runs, seen: reference{}, rng: rand.New(rand.NewSource(e.seed))}
	if e.seed == 1 && !e.short {
		if x.ref, err = loadReference(refM64Seed1); err != nil {
			return nil, err
		}
	}
	// Warm-up: one untimed simulation.
	if err := x.simulate(ctx, &x.runs[0]); err != nil {
		return nil, fmt.Errorf("warm-up run: %w", err)
	}
	return x, nil
}

// recordM64 records the seed's graphs as RTF files under dir and returns
// the run list: every graph under every configuration, graph-major.
func recordM64(seed int64, size m64Size, dir string) ([]m64Run, error) {
	var runs []m64Run
	for g := 0; g < size.graphs; g++ {
		spec := fmt.Sprintf("synth:mixed/seed=%d/width=%d/depth=%d/blocks=%d/shared=%d",
			seed*1000+int64(g), size.width, size.depth, size.blocks, size.shared)
		w, err := workloads.Get(spec, 1)
		if err != nil {
			return nil, err
		}
		tr, err := tracefile.Record(w, tracefile.Fingerprint(spec))
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("g%d.rtf", g))
		if err := tracefile.WriteFile(path, tr); err != nil {
			return nil, err
		}
		for _, c := range m64Configs {
			req := c
			req.Workload = workloads.TracePrefix + path
			req.Machine = "m64"
			req.Core = "ooo"
			req.PrefetchDegree = 2
			cfg, err := exec.BuildConfig(req, "", 0)
			if err != nil {
				return nil, err
			}
			runs = append(runs, m64Run{req: req, cfg: cfg})
		}
	}
	return runs, nil
}

// simulate is one operation: load the trace and simulate it.
func (x *m64) simulate(ctx context.Context, r *m64Run) error {
	w, err := workloads.Get(r.req.Workload, 1)
	if err != nil {
		return err
	}
	res, err := sim.RunContext(ctx, w, r.cfg)
	if err != nil {
		return err
	}
	row := resultRow(res)
	if x.ref != nil {
		return x.ref.check(row)
	}
	if first, ok := x.seen[rowKey(row)]; !ok {
		x.seen[rowKey(row)] = row
	} else if row != first {
		return fmt.Errorf("run %s is not deterministic:\n  %s\nfirst\n  %s", rowKey(row), row, first)
	}
	return nil
}

// run makes seed-permuted passes over the run list.
func (x *m64) run(ctx context.Context, w *window, rec *recorder) error {
	for {
		for _, i := range x.rng.Perm(len(x.runs)) {
			if !w.take() {
				return nil
			}
			start := time.Now()
			err := x.simulate(ctx, &x.runs[i])
			if ctx.Err() != nil {
				return ctx.Err()
			}
			rec.op(time.Since(start), 1, err)
		}
	}
}

func (x *m64) verify(context.Context, *recorder) error { return nil }

// layers traces runs graph by graph, every configuration of a graph,
// until the budget is spent.
func (x *m64) layers(ctx context.Context, budget time.Duration, _ int, rec *recorder, m Metrics) error {
	reqs := make([]client.RunRequest, len(x.runs))
	for i, r := range x.runs {
		reqs[i] = r.req
	}
	return simLayers(ctx, reqs, budget, rec, m)
}

func (x *m64) close(context.Context) {}
