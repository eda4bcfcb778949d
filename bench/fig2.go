package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"raccd/client"
	"raccd/internal/coherence"
	"raccd/internal/report"
	"raccd/internal/sim"
	"raccd/internal/workloads"
)

// fig2-sweep is the paper's own artifact: the nine benchmarks under
// FullCoh, PT and RaCCD at 1:1 on the 16-core machine with the simple
// core and validation on, run through report.Matrix with two simulation
// jobs, repetition after repetition. The cache, directory and coherence
// hot path does nearly all the work and no serving layer runs. One
// operation is one simulation.

// fig2Jobs is the sweep's simulation parallelism: one job per host CPU of
// the 2-CPU machine the benchmark is sized for.
const fig2Jobs = 2

type fig2 struct {
	scale float64
	ref   reference
	rng   *rand.Rand
}

func setupFig2(ctx context.Context, e *env) (instance, error) {
	f := &fig2{scale: 1, rng: rand.New(rand.NewSource(e.seed))}
	name := refFig2Scale1
	if e.short {
		f.scale, name = 0.25, refFig2Small
	}
	ref, err := loadReference(name)
	if err != nil {
		return nil, err
	}
	f.ref = ref
	// Warm-up: one untimed sweep.
	warm := &recorder{}
	if err := f.run(ctx, once(), warm); err != nil {
		return nil, err
	}
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up sweep: %v", warm.errs[0])
	}
	return f, nil
}

// sweep runs the Fig 2 matrix once, in a seed-permuted benchmark and
// scheme order, recording one operation per simulation.
func (f *fig2) sweep(ctx context.Context, rec *recorder) error {
	m := report.DefaultMatrix()
	m.Workloads = shuffled(f.rng, m.Workloads)
	m.Systems = shuffled(f.rng, m.Systems)
	m.Ratios = []int{1}
	m.ADR = false
	m.Scale = f.scale
	m.Jobs = fig2Jobs
	var mu sync.Mutex
	lat := make(map[report.Key]time.Duration, m.NumRuns())
	m.OnSimulated = func(_ string, _ coherence.Mode, d time.Duration, res sim.Result) {
		mu.Lock()
		lat[report.Key{Workload: res.Workload, System: res.System, Ratio: res.DirRatio, ADR: res.ADR}] = d
		mu.Unlock()
	}
	set, err := m.RunContext(ctx)
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if err != nil {
		for i := 0; i < m.NumRuns(); i++ {
			rec.op(0, 0, err)
		}
		return nil
	}
	for _, res := range set.Results() {
		d := lat[report.Key{Workload: res.Workload, System: res.System, Ratio: res.DirRatio, ADR: res.ADR}]
		rec.op(d, 1, f.ref.check(resultRow(res)))
	}
	return nil
}

// run makes the sweeps w admits.
func (f *fig2) run(ctx context.Context, w *window, rec *recorder) error {
	for w.take() {
		if err := f.sweep(ctx, rec); err != nil {
			return err
		}
	}
	return nil
}

func (f *fig2) verify(context.Context, *recorder) error { return nil }

// layers traces every run of one sweep.
func (f *fig2) layers(ctx context.Context, budget time.Duration, _ int, rec *recorder, m Metrics) error {
	return simLayers(ctx, shuffled(f.rng, fig2Requests(f.scale)), budget, rec, m)
}

func (f *fig2) close(context.Context) {}

// fig2Requests returns the runs of the Fig 2 sweep at scale as wire
// requests, in matrix order.
func fig2Requests(scale float64) []client.RunRequest {
	var out []client.RunRequest
	for _, name := range workloads.PaperSet() {
		for _, sys := range report.Systems {
			out = append(out, client.RunRequest{Workload: name, Scale: scale, System: sys.String()})
		}
	}
	return out
}

// shuffled returns a seed-permuted copy of xs.
func shuffled[T any](rng *rand.Rand, xs []T) []T {
	out := append([]T(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
