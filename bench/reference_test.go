package bench

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"raccd/internal/report"
	"raccd/internal/sim"
	"raccd/internal/workloads"
)

var update = flag.Bool("update", false, "regenerate the reference outputs in testdata/")

// fig2CSV runs the Fig 2 sweep at scale.
func fig2CSV(ctx context.Context, scale float64) (string, error) {
	m := report.DefaultMatrix()
	m.Ratios = []int{1}
	m.ADR = false
	m.Scale = scale
	m.Jobs = fig2Jobs
	set, err := m.RunContext(ctx)
	if err != nil {
		return "", err
	}
	return set.CSV(), nil
}

// m64CSV runs every run of m64-trace-replay once at full size.
func m64CSV(ctx context.Context, seed int64, dir string) (string, error) {
	runs, err := recordM64(seed, m64Normal, dir)
	if err != nil {
		return "", err
	}
	var results []sim.Result
	for _, r := range runs {
		w, err := workloads.Get(r.req.Workload, 1)
		if err != nil {
			return "", err
		}
		res, err := sim.RunContext(ctx, w, r.cfg)
		if err != nil {
			return "", err
		}
		results = append(results, res)
	}
	return report.NewSet(results).CSV(), nil
}

// TestReferenceOutputs checks that the embedded reference outputs are what
// the simulator produces now; -update rewrites them.
func TestReferenceOutputs(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		csv  func() (string, error)
		slow bool
	}{
		{refFig2Small, func() (string, error) { return fig2CSV(ctx, poolScale) }, false},
		{refFig2Scale1, func() (string, error) { return fig2CSV(ctx, 1) }, false},
		{refM64Seed1, func() (string, error) { return m64CSV(ctx, 1, t.TempDir()) }, true},
	}
	for _, c := range cases {
		if c.slow && testing.Short() && !*update {
			continue
		}
		got, err := c.csv()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		path := filepath.Join("testdata", c.name)
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s is stale; regenerate with go test -run TestReferenceOutputs -update", c.name)
		}
	}
}
