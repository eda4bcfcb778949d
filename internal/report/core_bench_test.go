package report

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"raccd/internal/coherence"
)

// TestEmitCoreBench measures the core-timing axis — simulated-cycle
// ratios, not wall-clock — and writes BENCH_core.json when BENCH_CORE_OUT
// is set:
//
//	BENCH_CORE_OUT=$PWD/BENCH_core.json go test ./internal/report -run TestEmitCoreBench -v
//
// It runs the paper's workloads under FullCoh and RaCCD at 1:1 for each
// core configuration (simple, simple+prefetch, ooo, ooo+prefetch) and
// records the geomean cycle ratios. The headline question: does RaCCD's
// benefit over full coherence grow or shrink when the cores prefetch?
// (A prefetcher front-loads misses and converts demand latency into
// overlap, so it erodes exactly the stalls RaCCD's deactivated blocks
// were avoiding — the recorded ratio says by how much.)
//
// Unlike wall-clock records, every number here is simulated cycles, which
// are deterministic for a given scale — host-independent, so the perfgate
// comparison is exact and the default tolerance is pure slack.
// BENCH_CORE_SCALE (default 0.25) sizes the problems; it must match the
// reference record's scale for the ratios to be comparable.
func TestEmitCoreBench(t *testing.T) {
	out := os.Getenv("BENCH_CORE_OUT")
	if out == "" {
		t.Skip("set BENCH_CORE_OUT=<path> to run the core-model benchmark")
	}
	scale := 0.25
	if s := os.Getenv("BENCH_CORE_SCALE"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("BENCH_CORE_SCALE: %v", err)
		}
		scale = v
	}

	type coreCfg struct {
		key      string
		core     string
		prefetch int
	}
	cfgs := []coreCfg{
		{"simple", "", 0},
		{"simple_prefetch2", "", 2},
		{"ooo", "ooo", 0},
		{"ooo_prefetch2", "ooo", 2},
	}

	// benefit is the geomean over workloads of FullCoh cycles / RaCCD
	// cycles — how much cheaper the schemes the paper proposes make the
	// run, per core configuration.
	type measured struct {
		benefit     float64
		raccdCycles map[string]uint64
		coverage    float64
	}
	results := make(map[string]measured, len(cfgs))
	for _, cc := range cfgs {
		mx := DefaultMatrix()
		mx.Systems = []coherence.Mode{coherence.FullCoh, coherence.RaCCD}
		mx.Ratios = []int{1}
		mx.ADR = false
		mx.Scale = scale
		mx.Core = cc.core
		mx.PrefetchDegree = cc.prefetch
		set, err := mx.Run()
		if err != nil {
			t.Fatalf("%s sweep: %v", cc.key, err)
		}
		m := measured{raccdCycles: map[string]uint64{}}
		logBenefit := 0.0
		var covSum float64
		var covRuns int
		for _, w := range mx.Workloads {
			fc, ok1 := set.Get(w, coherence.FullCoh, 1, false)
			rc, ok2 := set.Get(w, coherence.RaCCD, 1, false)
			if !ok1 || !ok2 {
				t.Fatalf("%s: missing %s rows", cc.key, w)
			}
			logBenefit += math.Log(float64(fc.Cycles) / float64(rc.Cycles))
			m.raccdCycles[w] = rc.Cycles
			if rc.PrefetchIssued > 0 {
				covSum += rc.PrefetchCoverage
				covRuns++
			}
		}
		m.benefit = math.Exp(logBenefit / float64(len(mx.Workloads)))
		if covRuns > 0 {
			m.coverage = covSum / float64(covRuns)
		}
		results[cc.key] = m
		t.Logf("%s: RaCCD benefit %.4fx, prefetch coverage %.3f", cc.key, m.benefit, m.coverage)
	}

	// geomeanRatio compares RaCCD cycles across two configurations:
	// >1 means configuration a simulates fewer cycles than b.
	geomeanRatio := func(a, b measured) float64 {
		lg, n := 0.0, 0
		for w, ca := range a.raccdCycles {
			if cb, ok := b.raccdCycles[w]; ok {
				lg += math.Log(float64(cb) / float64(ca))
				n++
			}
		}
		return math.Exp(lg / float64(n))
	}

	headline := map[string]any{
		"speedup_raccd_vs_fullcoh_simple":           results["simple"].benefit,
		"speedup_raccd_vs_fullcoh_simple_prefetch2": results["simple_prefetch2"].benefit,
		"speedup_raccd_vs_fullcoh_ooo":              results["ooo"].benefit,
		"speedup_raccd_vs_fullcoh_ooo_prefetch2":    results["ooo_prefetch2"].benefit,
		// The headline question as one ratio: RaCCD's benefit with a
		// degree-2 prefetcher over its benefit without one (<1 = the
		// prefetcher erodes RaCCD's advantage, >1 = it compounds it).
		"speedup_raccd_benefit_with_prefetch_vs_without": results["simple_prefetch2"].benefit / results["simple"].benefit,
		// How much each knob moves RaCCD's own cycle count.
		"speedup_prefetch2_vs_noprefetch_raccd": geomeanRatio(results["simple_prefetch2"], results["simple"]),
		"speedup_ooo_vs_simple_raccd":           geomeanRatio(results["ooo"], results["simple"]),
		// Not gated (no "speedup" in the key): average prefetch coverage
		// across the RaCCD runs that armed one.
		"prefetch_coverage_simple": results["simple_prefetch2"].coverage,
		"prefetch_coverage_ooo":    results["ooo_prefetch2"].coverage,
	}

	doc := map[string]any{
		"description": fmt.Sprintf(
			"Core-timing axis: the paper's workloads under FullCoh and RaCCD at 1:1 (scale %g, paper16 machine) for each core configuration — simple, simple+prefetch(2), ooo, ooo+prefetch(2). All ratios are simulated cycles (deterministic per scale), not wall-clock. Regenerate with BENCH_CORE_OUT=$PWD/BENCH_core.json go test ./internal/report -run TestEmitCoreBench.",
			scale),
		"date":     time.Now().Format("2006-01-02"),
		"machine":  fmt.Sprintf("%s/%s, %d CPU, %s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version()),
		"headline": headline,
		"notes": []string{
			"speedup_raccd_vs_fullcoh_* is the geomean over workloads of FullCoh cycles / RaCCD cycles under that core configuration; speedup_raccd_benefit_with_prefetch_vs_without divides the prefetching benefit by the plain one — the EXPERIMENTS.md headline question in a single gated ratio.",
			"Simulated cycles are deterministic for a given scale and host-independent, so a regenerated record on any host must reproduce these ratios exactly (perfgate tolerance is pure slack); a drift means the timing model changed and the record must be regenerated deliberately.",
			"The simple core reproduces the pre-cpu-subsystem cycle counts byte-for-byte (golden_small_sweep.csv pins this), so speedup_raccd_vs_fullcoh_simple doubles as the frozen baseline of the paper reproduction.",
			"Prefetches are real coherence-hierarchy accesses: they allocate, invalidate and ride the NoC under the run's scheme, so coverage differs between FullCoh and RaCCD runs of the same workload.",
		},
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}
