package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the code must agree with.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []Def `json:"end_to_end"`
	PerLayer []Def `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCatalogueMatchesBenchmarkJSON keeps the metric catalogue the code
// emits and BENCHMARK.json in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if !reflect.DeepEqual(b.EndToEnd, EndToEnd) {
		t.Errorf("end_to_end\n  %+v\nwant the catalogue\n  %+v", b.EndToEnd, EndToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, PerLayer) {
		t.Errorf("per_layer\n  %+v\nwant the catalogue\n  %+v", b.PerLayer, PerLayer)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, Workloads()) {
		t.Errorf("workloads %v, want %v", names, Workloads())
	}
	if b.RunSeconds != DefaultSeconds {
		t.Errorf("run_seconds %g, want DefaultSeconds %d", b.RunSeconds, DefaultSeconds)
	}
	maxBound := 0.0
	for _, d := range EndToEnd {
		maxBound = math.Max(maxBound, d.Bound)
	}
	for _, d := range EndToEnd {
		if d.Name == "setup_s" && d.Bound != maxBound {
			t.Errorf("setup_s bound %g is not the largest (%g)", d.Bound, maxBound)
		}
	}
}

// TestSmoke runs every workload at smoke-test size through Run, untraced
// and traced: each must report exactly the metrics BENCHMARK.json lists
// for its mode, with their units, and no failed operation.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	ctx := context.Background()
	for _, w := range Workloads() {
		for _, trace := range []bool{false, true} {
			res, err := Run(ctx, Options{Workload: w, Seed: 1, Seconds: 0.3, Trace: trace, Short: true, WorkDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v, want a number in %s", w, trace, d.Name, m, d.Unit)
				}
			}
			if !trace {
				for _, d := range want {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %g, want > 0", w, d.Name, res.Metrics[d.Name].Value)
					}
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v",
					w, trace, res.Correct, res.Attempted, res.Failed, res.Failures)
			}
		}
	}
}

// TestMainPrintsResultLast checks the command's output contract: the last
// line of stdout is one JSON object with exactly the result keys.
func TestMainPrintsResultLast(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", "serve-warm", "--seed", "2", "--seconds", "0.2", "--trace", "0", "-short", "-workdir", t.TempDir()}
	if code := Main(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var obj map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &obj); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	var keys []string
	for k := range obj {
		keys = append(keys, k)
	}
	if len(keys) != 4 || obj["correct"] == nil || obj["attempted"] == nil || obj["failed"] == nil || obj["metrics"] == nil {
		t.Errorf("result keys %v, want correct, attempted, failed, metrics", keys)
	}
}

func TestMainRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope", "-short"},
		{"-trace", "2"},
		{"-seconds", "0", "-workload", "fig2-sweep"},
		{"extra"},
	} {
		var stdout, stderr bytes.Buffer
		args = append(args, "-workdir", t.TempDir())
		if code := Main(context.Background(), args, &stdout, &stderr); code == 0 {
			t.Errorf("%v: exit 0, want failure", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q, want no result", args, stdout.String())
		}
	}
}

func TestParsePprofTop(t *testing.T) {
	out := `File: raccdbench
Type: cpu
Showing nodes accounting for 2s, 100% of 2s total
      flat  flat%   sum%        cum   cum%
     0.60s 30.00% 30.00%      0.70s 35.00%  raccd/internal/cache.(*Cache).Lookup
     0.40s 20.00% 50.00%      0.40s 20.00%  runtime.mallocgc
     0.20s 10.00% 60.00%      0.20s 10.00%  internal/runtime/maps.(*Map).getWithKey
     0.20s 10.00% 70.00%      0.20s 10.00%  raccd/internal/workloads/synth.(*builder).add.func1
     0.20s 10.00% 80.00%      0.20s 10.00%  raccd/internal/mem.BlockOf (inline)
     0.10s  5.00% 85.00%      0.10s  5.00%  net/http.(*conn).serve
     0.10s  5.00% 90.00%      0.10s  5.00%  slices.SortFunc[go.shape.[]raccd/internal/x.T]
     0.20s 10.00%   100%      0.20s 10.00%  raccd/bench.(*hostProbe).kernel
`
	got, err := parsePprofTop(out)
	if err != nil {
		t.Fatal(err)
	}
	// The probe's 10% is not the program's: shares are of the other 90%.
	want := map[string]float64{"cache": 0.3 / 0.9, "go_runtime": 0.3 / 0.9, "workloads": 0.1 / 0.9, "mem": 0.1 / 0.9, "net_http": 0.05 / 0.9}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s share %g, want %g", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("shares %v, want %v", got, want)
	}
	if _, err := parsePprofTop("no table here"); err == nil {
		t.Error("output without a sample table was accepted")
	}
}

func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	xs := []float64{5, 1, math.Inf(1), 3, 2, 4, 6, 7, 8, 9}
	if p := percentile(append([]float64(nil), xs...), 0.5); p != 5 {
		t.Errorf("p50 %g, want 5", p)
	}
	if p := percentile(append([]float64(nil), xs...), 0.9); p != 9 {
		t.Errorf("p90 %g, want 9", p)
	}
	if p := percentile(append([]float64(nil), xs...), 1); !math.IsInf(p, 1) {
		t.Errorf("p100 %g, want +Inf", p)
	}
}
