package report

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"raccd/internal/coherence"
)

func smallMatrix() Matrix {
	return Matrix{
		Workloads: []string{"MD5", "Jacobi"},
		Systems:   Systems,
		Ratios:    []int{1, 16},
		ADR:       true,
		Scale:     0.08,
		Validate:  true,
	}
}

// A parallel sweep must be observationally identical to a sequential
// one: byte-identical CSV and an identical, in-order Progress stream.
func TestParallelSweepDeterministic(t *testing.T) {
	runWith := func(jobs int) (csv string, progress []string) {
		m := smallMatrix()
		m.Jobs = jobs
		m.Progress = func(msg string) { progress = append(progress, msg) }
		set, err := m.Run()
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return set.CSV(), progress
	}

	wantCSV, wantProgress := runWith(1)
	for _, jobs := range []int{0, 2, 4} {
		gotCSV, gotProgress := runWith(jobs)
		if gotCSV != wantCSV {
			t.Errorf("jobs=%d: CSV differs from sequential run", jobs)
		}
		if len(gotProgress) != len(wantProgress) {
			t.Fatalf("jobs=%d: %d progress lines, want %d", jobs, len(gotProgress), len(wantProgress))
		}
		for i := range wantProgress {
			if gotProgress[i] != wantProgress[i] {
				t.Errorf("jobs=%d: progress line %d = %q, want %q", jobs, i, gotProgress[i], wantProgress[i])
			}
		}
	}
}

// The NCRT sensitivity sweep must be order-independent too.
func TestParallelNCRTSweepDeterministic(t *testing.T) {
	runWith := func(jobs int) map[uint64]map[string]uint64 {
		m := Matrix{Workloads: []string{"Jacobi"}, Scale: 0.08, Validate: true, Jobs: jobs}
		cycles, err := m.RunNCRTSweep()
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return cycles
	}
	want := runWith(1)
	got := runWith(4)
	if len(got) != len(want) {
		t.Fatalf("parallel sweep covered %d latencies, want %d", len(got), len(want))
	}
	for lat, m := range want {
		for name, c := range m {
			if got[lat][name] != c {
				t.Errorf("ncrt=%d %s: parallel %d cycles, sequential %d", lat, name, got[lat][name], c)
			}
		}
	}
}

// A failing run must name the configuration that died, for both sweeps
// and at every parallelism level.
func TestRunErrorCarriesIdentity(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		m := Matrix{
			Workloads: []string{"NoSuchBenchmark"},
			Systems:   []coherence.Mode{coherence.RaCCD},
			Ratios:    []int{64},
			Scale:     0.08,
			Jobs:      jobs,
		}
		_, err := m.Run()
		if err == nil {
			t.Fatalf("jobs=%d: want error for unknown benchmark", jobs)
		}
		for _, frag := range []string{"NoSuchBenchmark", "RaCCD", "1:64"} {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("jobs=%d: error %q does not identify the failing run (missing %q)", jobs, err, frag)
			}
		}
		// Which latency's run loses the race to fail first is not pinned
		// down, but the error must name one.
		if _, err := m.RunNCRTSweep(); err == nil || !strings.Contains(err.Error(), "ncrt=") {
			t.Errorf("jobs=%d: NCRT sweep error %v does not identify the failing run", jobs, err)
		}
	}
}

// Cancelling the sweep's context aborts it.
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := smallMatrix()
	m.Jobs = 2
	if _, err := m.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := m.RunNCRTSweepContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("ncrt err = %v, want context.Canceled", err)
	}
}

// TestRunContextCancelsInFlight: cancelling a sweep mid-run aborts its
// in-flight simulations at their next task dispatch, so RunContext
// returns context.Canceled long before the uncancelled sweep would have
// finished — on one worker as on two. A one-run matrix takes the
// single-worker path at Jobs 2 too. Each bound is relative to the
// uncancelled sweep's own time, so a -race slowdown scales both sides.
func TestRunContextCancelsInFlight(t *testing.T) {
	timed := func(ctx context.Context, m Matrix) (time.Duration, error) {
		start := time.Now()
		_, err := m.RunContext(ctx)
		return time.Since(start), err
	}
	for _, tc := range []struct {
		name    string
		systems []coherence.Mode
		jobs    []int
	}{
		{"one run", []coherence.Mode{coherence.RaCCD}, []int{1, 2}},
		{"two runs", []coherence.Mode{coherence.PT, coherence.RaCCD}, []int{2}},
	} {
		m := Matrix{Workloads: []string{"Cholesky"}, Systems: tc.systems, Ratios: []int{1}, Scale: 1.5, Validate: true, Jobs: tc.jobs[0]}
		full, err := timed(context.Background(), m)
		if err != nil {
			t.Fatalf("%s: uncancelled: %v", tc.name, err)
		}
		for _, jobs := range tc.jobs {
			m.Jobs = jobs
			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(full/10, cancel)
			took, err := timed(ctx, m)
			timer.Stop()
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s, %d jobs: cancelled at %v: err = %v, want context.Canceled", tc.name, jobs, full/10, err)
			}
			if took >= full/2 {
				t.Errorf("%s, %d jobs: cancelled at %v, returned after %v; uncancelled it took %v", tc.name, jobs, full/10, took, full)
			}
		}
	}
}

// BenchmarkMatrixRun compares the sequential sweep against the
// worker-pool one; run with `go test -bench MatrixRun ./internal/report`.
func BenchmarkMatrixRun(b *testing.B) {
	for _, bc := range []struct {
		name string
		jobs int
	}{
		{"sequential", 1},
		{"parallel", runtime.GOMAXPROCS(0)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := smallMatrix()
				m.Jobs = bc.jobs
				if _, err := m.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
