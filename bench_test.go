// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section. Each benchmark runs the simulations that
// regenerate its figure and reports the headline numbers via
// b.ReportMetric, so `go test -bench=. -benchmem` reproduces the whole
// evaluation. The paper's value for each entry is quoted in the
// benchmark's comment; EXPERIMENTS.md maps each figure to the command
// that regenerates it.
package raccd

import (
	"sync"
	"testing"

	"raccd/internal/energy"
)

// benchScale trades fidelity for wall time; the full-size sweep is run by
// cmd/sweep (scale 1.0) and recorded in EXPERIMENTS.md.
const benchScale = 0.5

var (
	sweepOnce sync.Once
	sweepSet  *ResultSet
	sweepErr  error
)

// fullSweep runs the complete evaluation matrix once and caches it for all
// figure benchmarks.
func fullSweep(b *testing.B) *ResultSet {
	b.Helper()
	sweepOnce.Do(func() {
		m := NewSweep(benchScale)
		sweepSet, sweepErr = RunSweep(m)
	})
	if sweepErr != nil {
		b.Fatal(sweepErr)
	}
	return sweepSet
}

// avg computes the mean of metric over the paper benchmarks that have the
// requested run, skipping absent cells.
func avg(set *ResultSet, sys System, ratio int, adr bool, metric func(Result) float64) float64 {
	sum, n := 0.0, 0
	for _, w := range set.Workloads() {
		r, ok := set.Get(w, sys, ratio, adr)
		if !ok {
			continue
		}
		sum += metric(r)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// avgNorm averages metric normalised per benchmark to FullCoh 1:1.
func avgNorm(set *ResultSet, sys System, ratio int, adr bool, metric func(Result) float64) float64 {
	sum, n := 0.0, 0
	for _, w := range set.Workloads() {
		r, ok := set.Get(w, sys, ratio, adr)
		base, ok2 := set.Get(w, FullCoh, 1, false)
		if !ok || !ok2 || metric(base) == 0 {
			continue
		}
		sum += metric(r) / metric(base)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func cycles(r Result) float64      { return float64(r.Cycles) }
func dirAccesses(r Result) float64 { return float64(r.DirAccesses) }
func nocTraffic(r Result) float64  { return float64(r.NoCByteHops) }
func dirEnergy(r Result) float64   { return r.DirEnergy }

// BenchmarkFig2NonCoherentBlocks regenerates Fig 2: the fraction of cache
// blocks never accessed coherently under PT and RaCCD.
// Paper: PT 26.9 %, RaCCD 78.6 % on average.
func BenchmarkFig2NonCoherentBlocks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		set := fullSweep(b)
		b.ReportMetric(avg(set, PT, 1, false, func(r Result) float64 { return r.NCFraction }), "ncfrac_pt")
		b.ReportMetric(avg(set, RaCCD, 1, false, func(r Result) float64 { return r.NCFraction }), "ncfrac_raccd")
	}
}

// BenchmarkFig6Cycles regenerates Fig 6: normalised execution cycles across
// the directory-size sweep. Paper: FullCoh +22 % already at 1:2 and +71 % at
// 1:256; RaCCD +2.8 % at 1:64 and +10 % at 1:256.
func BenchmarkFig6Cycles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		set := fullSweep(b)
		b.ReportMetric(avgNorm(set, FullCoh, 2, false, cycles), "fullcoh_1:2")
		b.ReportMetric(avgNorm(set, FullCoh, 256, false, cycles), "fullcoh_1:256")
		b.ReportMetric(avgNorm(set, PT, 8, false, cycles), "pt_1:8")
		b.ReportMetric(avgNorm(set, RaCCD, 64, false, cycles), "raccd_1:64")
		b.ReportMetric(avgNorm(set, RaCCD, 256, false, cycles), "raccd_1:256")
	}
}

// BenchmarkFig7aDirAccesses regenerates Fig 7a: directory accesses relative
// to FullCoh 1:1. Paper: RaCCD averages 26 % of the baseline's accesses.
func BenchmarkFig7aDirAccesses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		set := fullSweep(b)
		b.ReportMetric(avgNorm(set, RaCCD, 1, false, dirAccesses), "raccd_1:1")
		b.ReportMetric(avgNorm(set, PT, 1, false, dirAccesses), "pt_1:1")
		b.ReportMetric(avgNorm(set, RaCCD, 256, false, dirAccesses), "raccd_1:256")
	}
}

// BenchmarkFig7bLLCHitRatio regenerates Fig 7b. Paper: FullCoh drops from
// 56 % at 1:1 to 24 % at 1:256; RaCCD holds 55 % → 51 %.
func BenchmarkFig7bLLCHitRatio(b *testing.B) {
	hit := func(r Result) float64 { return r.LLCHitRatio }
	for i := 0; i < b.N; i++ {
		set := fullSweep(b)
		b.ReportMetric(avg(set, FullCoh, 1, false, hit), "fullcoh_1:1")
		b.ReportMetric(avg(set, FullCoh, 256, false, hit), "fullcoh_1:256")
		b.ReportMetric(avg(set, RaCCD, 1, false, hit), "raccd_1:1")
		b.ReportMetric(avg(set, RaCCD, 256, false, hit), "raccd_1:256")
	}
}

// BenchmarkFig7cNoCTraffic regenerates Fig 7c. Paper: at 1:256 traffic grows
// +91 % under FullCoh but only +15 % under RaCCD (vs each system's 1:1).
func BenchmarkFig7cNoCTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		set := fullSweep(b)
		growth := func(sys System) float64 {
			sum, n := 0.0, 0
			for _, w := range set.Workloads() {
				big, ok1 := set.Get(w, sys, 1, false)
				small, ok2 := set.Get(w, sys, 256, false)
				if !ok1 || !ok2 || big.NoCByteHops == 0 {
					continue
				}
				sum += float64(small.NoCByteHops) / float64(big.NoCByteHops)
				n++
			}
			if n == 0 {
				return 0
			}
			return sum / float64(n)
		}
		b.ReportMetric(growth(FullCoh), "fullcoh_growth")
		b.ReportMetric(growth(PT), "pt_growth")
		b.ReportMetric(growth(RaCCD), "raccd_growth")
	}
}

// BenchmarkFig7dDirEnergy regenerates Fig 7d. Paper: RaCCD consumes 71 %
// less directory dynamic energy than FullCoh at 1:1 and 80 % less at 1:256.
func BenchmarkFig7dDirEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		set := fullSweep(b)
		b.ReportMetric(avgNorm(set, RaCCD, 1, false, dirEnergy), "raccd_1:1")
		b.ReportMetric(avgNorm(set, PT, 1, false, dirEnergy), "pt_1:1")
		b.ReportMetric(avgNorm(set, RaCCD, 256, false, dirEnergy), "raccd_1:256")
	}
}

// BenchmarkTable3DirArea regenerates Table III analytically. Paper: 4224 KB
// and 106.08 mm² at 1:1 down to 16.5 KB and 2.64 mm² at 1:256 (a 97.5 % area
// reduction).
func BenchmarkTable3DirArea(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
			kb := energy.DirectorySizeKB(524288 / n)
			sink += energy.SRAMAreaMM2(kb)
		}
	}
	full := energy.SRAMAreaMM2(energy.DirectorySizeKB(524288))
	small := energy.SRAMAreaMM2(energy.DirectorySizeKB(2048))
	b.ReportMetric(1-small/full, "area_reduction_1:256")
	_ = sink
}

// BenchmarkFig8Occupancy regenerates Fig 8: average directory occupancy at
// 1:1. Paper: FullCoh 65.7 %, PT 20.3 %, RaCCD 10.8 %.
func BenchmarkFig8Occupancy(b *testing.B) {
	occ := func(r Result) float64 { return r.DirOccupancy }
	for i := 0; i < b.N; i++ {
		set := fullSweep(b)
		b.ReportMetric(avg(set, FullCoh, 1, false, occ), "fullcoh")
		b.ReportMetric(avg(set, PT, 1, false, occ), "pt")
		b.ReportMetric(avg(set, RaCCD, 1, false, occ), "raccd")
	}
}

// BenchmarkFig9ADRPerf regenerates Fig 9: ADR must not harm performance.
// Paper: RaCCD+ADR within noise of RaCCD 1:1 (< 2 % off FullCoh on average).
func BenchmarkFig9ADRPerf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		set := fullSweep(b)
		b.ReportMetric(avgNorm(set, RaCCD, 1, false, cycles), "raccd_1:1")
		b.ReportMetric(avgNorm(set, RaCCD, 1, true, cycles), "raccd_adr")
	}
}

// BenchmarkFig10ADREnergy regenerates Fig 10: directory dynamic energy with
// ADR. Paper: RaCCD+ADR saves 50 % vs RaCCD 1:1, 72 % vs PT 1:1 and 86 % vs
// FullCoh.
func BenchmarkFig10ADREnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		set := fullSweep(b)
		b.ReportMetric(avgNorm(set, RaCCD, 1, true, dirEnergy), "raccd_adr")
		b.ReportMetric(avgNorm(set, RaCCD, 1, false, dirEnergy), "raccd_1:1")
		b.ReportMetric(avgNorm(set, PT, 1, false, dirEnergy), "pt_1:1")
	}
}

// BenchmarkSecVCNCRTLatency regenerates the §V-C NCRT latency sensitivity
// study. Paper: average overheads of 0.5 %, 0.7 %, 1.2 % and 3.5 % for 2, 3,
// 5 and 10-cycle NCRTs versus the 1-cycle design.
func BenchmarkSecVCNCRTLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		names := []string{"Jacobi", "Kmeans", "Gauss"}
		base := map[string]uint64{}
		for _, lat := range []uint64{1, 10} {
			for _, name := range names {
				w, err := NewWorkload(name, benchScale)
				if err != nil {
					b.Fatal(err)
				}
				cfg := DefaultConfig(RaCCD, 1)
				cfg.NCRTLatency = lat
				res, err := Run(w, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if lat == 1 {
					base[name] = res.Cycles
				} else {
					b.ReportMetric(float64(res.Cycles)/float64(base[name]), "slowdown_"+name)
				}
			}
		}
	}
}
