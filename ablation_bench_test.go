// Ablation benchmarks for the model's design choices: scheduler policy
// (the source of temporarily-private data), NCRT capacity (what the
// 32-entry table of Table I buys), physical page contiguity (the Fig 5
// collapse assumption), L1 write policy (§III-C3 supports both), and the
// §III-E SMT extension.
package raccd

import (
	"testing"

	"raccd/internal/sim"
)

const ablScale = 0.5

func runAbl(b *testing.B, name string, cfg Config) Result {
	b.Helper()
	w, err := NewWorkload(name, ablScale)
	if err != nil {
		b.Fatal(err)
	}
	res, err := Run(w, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationScheduler compares ready-queue policies. Dynamic FIFO
// scheduling migrates data between cores — the behaviour that breaks PT's
// page classification; a locality-aware scheduler narrows the PT/RaCCD gap.
func BenchmarkAblationScheduler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, sched := range []string{"fifo", "lifo", "locality"} {
			cfg := DefaultConfig(PT, 1)
			cfg.Scheduler = sched
			pt := runAbl(b, "CG", cfg)
			cfg.System = RaCCD
			rc := runAbl(b, "CG", cfg)
			b.ReportMetric(pt.NCFraction, "pt_ncfrac_"+sched)
			b.ReportMetric(rc.NCFraction, "raccd_ncfrac_"+sched)
		}
	}
}

// BenchmarkAblationNCRTSize sweeps the NCRT capacity under a fragmented
// physical layout, where a single task dependence may need many intervals:
// small tables overflow and leave regions coherent.
func BenchmarkAblationNCRTSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, entries := range []int{4, 8, 16, 32, 64} {
			cfg := DefaultConfig(RaCCD, 1)
			cfg.NCRTEntries = entries
			cfg.Contiguity = 0.5
			res := runAbl(b, "Jacobi", cfg)
			b.ReportMetric(res.NCFraction, "ncfrac_"+itoa(entries))
		}
	}
}

// BenchmarkAblationContiguity sweeps the physical page allocator contiguity
// against NCRT capacity. The paper observes Linux allocates the benchmark
// datasets contiguously, letting raccd_register collapse whole ranges into
// single NCRT intervals (Fig 5). At the scaled task sizes a 32-entry table
// absorbs even full fragmentation (Cholesky's 3×9-page gemm footprint needs
// at most 27 intervals), so the interaction only bites at reduced capacity —
// which this ablation makes visible with a 16-entry table.
func BenchmarkAblationContiguity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, entries := range []int{16, 32} {
			for _, contig := range []float64{1.0, 0.01} {
				cfg := DefaultConfig(RaCCD, 1)
				cfg.Contiguity = contig
				cfg.NCRTEntries = entries
				res := runAbl(b, "Cholesky", cfg)
				b.ReportMetric(res.NCFraction, "ncfrac_e"+itoa(entries)+"_c"+ftoa(contig))
			}
		}
	}
}

// BenchmarkAblationWritePolicy compares write-back and write-through private
// caches (§III-C3 defines non-coherent variants for both).
func BenchmarkAblationWritePolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		wb := runAbl(b, "RedBlack", DefaultConfig(RaCCD, 1))
		cfg := DefaultConfig(RaCCD, 1)
		cfg.WriteThrough = true
		wt := runAbl(b, "RedBlack", cfg)
		b.ReportMetric(float64(wb.Cycles), "cycles_wb")
		b.ReportMetric(float64(wt.Cycles), "cycles_wt")
		b.ReportMetric(float64(wb.NoCByteHops), "noc_wb")
		b.ReportMetric(float64(wt.NoCByteHops), "noc_wt")
	}
}

// BenchmarkAblationSMT compares 1-way and 2-way SMT (§III-E): 32 logical
// processors over the same 16 L1s and NCRTs.
func BenchmarkAblationSMT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		one := runAbl(b, "MD5", DefaultConfig(RaCCD, 1))
		cfg := DefaultConfig(RaCCD, 1)
		cfg.SMTWays = 2
		two := runAbl(b, "MD5", cfg)
		b.ReportMetric(float64(one.Cycles), "cycles_smt1")
		b.ReportMetric(float64(two.Cycles), "cycles_smt2")
	}
}

// BenchmarkAblationDirAssociativity holds capacity constant while halving
// the directory's sets and doubling its ways, isolating conflict misses in
// the sparse directory.
func BenchmarkAblationDirAssociativity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, ways := range []int{4, 8, 16} {
			w, err := NewWorkload("Jacobi", ablScale)
			if err != nil {
				b.Fatal(err)
			}
			cfg := DefaultConfig(FullCoh, 1).Resolve()
			cfg.Params.DirWays = ways
			cfg.Params.DirSetsPerBank = 256 * 8 / ways // constant capacity
			cfg.DirRatio = 8
			res, err := sim.Run(w, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Cycles), "cycles_ways"+itoa(ways))
		}
	}
}

// BenchmarkAblationNoCTopology compares the Table I 4×4 mesh against a
// 16-tile bidirectional ring: longer average distances raise both latency
// and the byte-hop traffic metric, uniformly across systems.
func BenchmarkAblationNoCTopology(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, topo := range []string{"mesh", "ring"} {
			w, err := NewWorkload("Jacobi", ablScale)
			if err != nil {
				b.Fatal(err)
			}
			cfg := DefaultConfig(RaCCD, 1).Resolve()
			cfg.Params.NoCTopology = topo
			res, err := sim.Run(w, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Cycles), "cycles_"+topo)
			b.ReportMetric(float64(res.NoCByteHops), "bytehops_"+topo)
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func ftoa(v float64) string {
	switch {
	case v >= 0.99:
		return "1.0"
	case v >= 0.49:
		return "0.5"
	default:
		return "0.01"
	}
}
