package sim

import (
	"strings"
	"testing"

	"raccd/internal/coherence"
	"raccd/internal/workloads"
)

// testScale keeps integration runs fast while exercising every code path.
const testScale = 0.08

func run(t *testing.T, name string, system coherence.Mode, ratio int) Result {
	t.Helper()
	cfg := DefaultConfig(system, ratio)
	res, err := Run(workloads.MustGet(name, testScale), cfg)
	if err != nil {
		t.Fatalf("%s/%v/1:%d: %v", name, system, ratio, err)
	}
	return res
}

// TestEveryWorkloadEverySystemValidates is the end-to-end correctness net:
// all ten workloads × three systems × two directory sizes, with invariant
// checking and golden final-memory validation enabled.
func TestEveryWorkloadEverySystemValidates(t *testing.T) {
	for _, name := range workloads.Names() {
		for _, system := range []coherence.Mode{coherence.FullCoh, coherence.PT, coherence.PTRO, coherence.RaCCD} {
			for _, ratio := range []int{1, 16} {
				res := run(t, name, system, ratio)
				if res.Cycles == 0 || res.TasksRun == 0 {
					t.Errorf("%s/%v/1:%d: empty run %+v", name, system, ratio, res)
				}
			}
		}
	}
}

func TestRaCCDReducesDirectoryAccesses(t *testing.T) {
	// The paper's headline: RaCCD needs a fraction of FullCoh's directory
	// accesses (26 % on average, Fig 7a). Check the direction holds for a
	// representative annotated benchmark.
	full := run(t, "Jacobi", coherence.FullCoh, 1)
	rac := run(t, "Jacobi", coherence.RaCCD, 1)
	if rac.DirAccesses >= full.DirAccesses/2 {
		t.Fatalf("RaCCD dir accesses %d not well below FullCoh %d", rac.DirAccesses, full.DirAccesses)
	}
}

func TestRaCCDBeatsPTOnMigratingData(t *testing.T) {
	// Fig 2: on benchmarks whose data migrates between cores (Jacobi),
	// RaCCD identifies far more non-coherent blocks than PT.
	pt := run(t, "Jacobi", coherence.PT, 1)
	rac := run(t, "Jacobi", coherence.RaCCD, 1)
	if rac.NCFraction <= pt.NCFraction {
		t.Fatalf("RaCCD NC fraction %.2f not above PT %.2f", rac.NCFraction, pt.NCFraction)
	}
}

func TestJPEGIsRaCCDWorstCase(t *testing.T) {
	// Fig 2: JPEG's unannotated tasks leave RaCCD with zero non-coherent
	// blocks, while PT still classifies private pages.
	rac := run(t, "JPEG", coherence.RaCCD, 1)
	if rac.NCFraction != 0 {
		t.Fatalf("JPEG RaCCD NC fraction = %.2f, want 0", rac.NCFraction)
	}
	pt := run(t, "JPEG", coherence.PT, 1)
	if pt.NCFraction <= 0.5 {
		t.Fatalf("JPEG PT NC fraction = %.2f, want > 0.5", pt.NCFraction)
	}
}

func TestFullCohDegradesWithSmallDirectory(t *testing.T) {
	// Fig 6: shrinking the directory hurts FullCoh badly.
	big := run(t, "Jacobi", coherence.FullCoh, 1)
	small := run(t, "Jacobi", coherence.FullCoh, 256)
	if float64(small.Cycles) < float64(big.Cycles)*1.05 {
		t.Fatalf("FullCoh 1:256 cycles %d not clearly above 1:1 %d", small.Cycles, big.Cycles)
	}
	if small.LLCHitRatio >= big.LLCHitRatio {
		t.Fatalf("FullCoh 1:256 LLC hit ratio %.2f not below 1:1 %.2f", small.LLCHitRatio, big.LLCHitRatio)
	}
}

func TestRaCCDToleratesSmallDirectory(t *testing.T) {
	// Fig 6: RaCCD's slowdown at 1:256 is far smaller than FullCoh's.
	fullBig := run(t, "Jacobi", coherence.FullCoh, 1)
	fullSmall := run(t, "Jacobi", coherence.FullCoh, 256)
	racBig := run(t, "Jacobi", coherence.RaCCD, 1)
	racSmall := run(t, "Jacobi", coherence.RaCCD, 256)
	fullPenalty := float64(fullSmall.Cycles) / float64(fullBig.Cycles)
	racPenalty := float64(racSmall.Cycles) / float64(racBig.Cycles)
	if racPenalty >= fullPenalty {
		t.Fatalf("RaCCD penalty %.2f not below FullCoh penalty %.2f", racPenalty, fullPenalty)
	}
}

func TestDirOccupancyOrdering(t *testing.T) {
	// Fig 8: occupancy FullCoh > PT > RaCCD (on migrating-data benchmarks).
	full := run(t, "Jacobi", coherence.FullCoh, 1)
	pt := run(t, "Jacobi", coherence.PT, 1)
	rac := run(t, "Jacobi", coherence.RaCCD, 1)
	if !(full.DirOccupancy > pt.DirOccupancy && pt.DirOccupancy > rac.DirOccupancy) {
		t.Fatalf("occupancy ordering violated: FullCoh %.3f, PT %.3f, RaCCD %.3f",
			full.DirOccupancy, pt.DirOccupancy, rac.DirOccupancy)
	}
}

func TestDirEnergyRaCCDBelowFullCoh(t *testing.T) {
	full := run(t, "Jacobi", coherence.FullCoh, 1)
	rac := run(t, "Jacobi", coherence.RaCCD, 1)
	if rac.DirEnergy >= full.DirEnergy {
		t.Fatalf("RaCCD dir energy %.0f not below FullCoh %.0f", rac.DirEnergy, full.DirEnergy)
	}
}

func TestADRShrinksDirectoryWithoutHarm(t *testing.T) {
	// ADR evaluates its occupancy monitor every 256 accesses with a
	// 128-evaluation shrink interval, so it needs a longer run than the
	// other integration tests to reconfigure at all.
	const adrScale = 0.5
	cfg := DefaultConfig(coherence.RaCCD, 1)
	base, err := Run(workloads.MustGet("Jacobi", adrScale), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ADR = true
	adr, err := Run(workloads.MustGet("Jacobi", adrScale), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if adr.ADRReconfigs == 0 {
		t.Fatal("ADR never reconfigured")
	}
	if adr.ADRFinalSets >= cfg.Params.DirSetsPerBank {
		t.Fatalf("ADR final sets %d did not shrink from %d", adr.ADRFinalSets, cfg.Params.DirSetsPerBank)
	}
	// Fig 9: ADR must not harm performance (allow 10 % tolerance at this
	// tiny scale).
	if float64(adr.Cycles) > float64(base.Cycles)*1.10 {
		t.Fatalf("ADR cycles %d more than 10%% above base %d", adr.Cycles, base.Cycles)
	}
	// Fig 10: ADR must not increase directory energy versus fixed 1:1.
	if adr.DirEnergy > base.DirEnergy {
		t.Fatalf("ADR dir energy %.0f above fixed 1:1 %.0f", adr.DirEnergy, base.DirEnergy)
	}
}

func TestADREnergySavingsUnderPT(t *testing.T) {
	// PT keeps substantial directory traffic, so the Fig 10 energy saving
	// is strictly visible there: ADR's smaller directory makes each of
	// those accesses cheaper.
	cfg := DefaultConfig(coherence.PT, 1)
	base, err := Run(workloads.MustGet("Jacobi", testScale), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ADR = true
	adr, err := Run(workloads.MustGet("Jacobi", testScale), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.DirEnergy == 0 {
		t.Fatal("PT baseline has no directory energy to save")
	}
	if adr.DirEnergy >= base.DirEnergy {
		t.Fatalf("PT+ADR dir energy %.0f not below PT 1:1 %.0f", adr.DirEnergy, base.DirEnergy)
	}
}

func TestUnknownSchedulerRejected(t *testing.T) {
	cfg := DefaultConfig(coherence.RaCCD, 1)
	cfg.Scheduler = "random"
	if _, err := Run(workloads.MustGet("MD5", testScale), cfg); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

func TestADRRejectsFullCoh(t *testing.T) {
	cfg := DefaultConfig(coherence.FullCoh, 1)
	cfg.ADR = true
	if _, err := Run(workloads.MustGet("MD5", testScale), cfg); err == nil {
		t.Fatal("ADR with FullCoh did not error")
	}
}

func TestSchedulersAllComplete(t *testing.T) {
	for _, sched := range []string{"fifo", "lifo", "locality"} {
		cfg := DefaultConfig(coherence.RaCCD, 1)
		cfg.Scheduler = sched
		res, err := Run(workloads.MustGet("CG", testScale), cfg)
		if err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		if res.TasksRun == 0 {
			t.Fatalf("%s: no tasks run", sched)
		}
	}
}

func TestSMTRunsValidate(t *testing.T) {
	// 2-way SMT: 32 logical processors over 16 cores, thread-tagged NCRTs,
	// per-thread recovery. Golden-memory validation must still hold for
	// every system.
	for _, sys := range []coherence.Mode{coherence.FullCoh, coherence.PT, coherence.RaCCD} {
		cfg := DefaultConfig(sys, 1)
		cfg.SMTWays = 2
		res, err := Run(workloads.MustGet("Cholesky", testScale), cfg)
		if err != nil {
			t.Fatalf("%v: %v", sys, err)
		}
		if res.TasksRun == 0 {
			t.Fatalf("%v: no tasks", sys)
		}
	}
}

func TestSMTMoreParallelism(t *testing.T) {
	// With enough independent tasks, 2-way SMT should not be slower than
	// 1-way on a dependence-limited workload (more logical processors).
	cfg1 := DefaultConfig(coherence.RaCCD, 1)
	one, err := Run(workloads.MustGet("MD5", 0.3), cfg1)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := DefaultConfig(coherence.RaCCD, 1)
	cfg2.SMTWays = 2
	two, err := Run(workloads.MustGet("MD5", 0.3), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if float64(two.Cycles) > float64(one.Cycles)*1.02 {
		t.Fatalf("SMT 2 slower than SMT 1: %d vs %d", two.Cycles, one.Cycles)
	}
}

func TestWriteThroughModeValidates(t *testing.T) {
	cfg := DefaultConfig(coherence.RaCCD, 1)
	cfg.Params.WriteThrough = true
	if _, err := Run(workloads.MustGet("Jacobi", testScale), cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFragmentedPageTableValidates(t *testing.T) {
	// Fragmented physical layout stresses multi-interval NCRT registration
	// and overflow fallback.
	cfg := DefaultConfig(coherence.RaCCD, 1)
	cfg.Params.Contiguity = 0.3
	res, err := Run(workloads.MustGet("Gauss", testScale), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("empty run")
	}
}

func TestNCRTLatencySweepMonotone(t *testing.T) {
	// §V-C: raising NCRT latency can only slow RaCCD down.
	var prev uint64
	for i, lat := range []uint64{1, 10} {
		cfg := DefaultConfig(coherence.RaCCD, 1)
		cfg.Params.NCRTLookupCycles = lat
		res, err := Run(workloads.MustGet("Jacobi", testScale), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.Cycles < prev {
			t.Fatalf("cycles decreased when NCRT latency rose: %d -> %d", prev, res.Cycles)
		}
		prev = res.Cycles
	}
}

func TestResultMetricsPopulated(t *testing.T) {
	res := run(t, "CG", coherence.RaCCD, 4)
	if res.Workload != "CG" || res.DirRatio != 4 || res.System != coherence.RaCCD {
		t.Fatalf("identity fields wrong: %+v", res)
	}
	if res.LLCHitRatio <= 0 || res.LLCHitRatio > 1 {
		t.Fatalf("LLC hit ratio %v out of range", res.LLCHitRatio)
	}
	if res.L1HitRatio <= 0 || res.L1HitRatio > 1 {
		t.Fatalf("L1 hit ratio %v out of range", res.L1HitRatio)
	}
	if res.DirKB <= 0 || res.NoCByteHops == 0 || res.GraphEdges == 0 {
		t.Fatalf("metrics missing: %+v", res)
	}
}

// Config.Check rejects impossible configurations with descriptive errors
// instead of panicking (bad ratio) or silently accepting (bad SMT).
func TestConfigCheck(t *testing.T) {
	ok := DefaultConfig(coherence.RaCCD, 16)
	if err := ok.Check(); err != nil {
		t.Fatal(err)
	}
	zero := Config{System: coherence.RaCCD} // zero values mean defaults
	if err := zero.Check(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"unknown scheduler", func(c *Config) { c.Scheduler = "random" }, "scheduler"},
		{"negative ratio", func(c *Config) { c.DirRatio = -4 }, "ratio"},
		{"non-divisor ratio", func(c *Config) { c.DirRatio = 3 }, "does not divide"},
		{"oversized ratio", func(c *Config) { c.DirRatio = 100000 }, "does not divide"},
		{"negative smt", func(c *Config) { c.SMTWays = -1 }, "SMT"},
		{"huge smt", func(c *Config) { c.SMTWays = 64 }, "SMT"},
		{"adr on fullcoh", func(c *Config) { c.System = coherence.FullCoh; c.ADR = true }, "ADR"},
		{"contiguity above one", func(c *Config) { c.Params.Contiguity = 5 }, "contiguity"},
		{"negative contiguity", func(c *Config) { c.Params.Contiguity = -0.5 }, "contiguity"},
		{"non-pow2 L1 sets", func(c *Config) { c.Params.L1Sets = 48 }, "L1Sets"},
		{"zero L1 ways", func(c *Config) { c.Params.L1Ways = 0 }, "L1Ways"},
		{"negative LLC sets", func(c *Config) { c.Params.LLCSetsPerBank = -256 }, "LLCSetsPerBank"},
		{"3 LLC ways", func(c *Config) { c.Params.LLCWays = 3 }, "LLCWays"},
		{"32 LLC ways", func(c *Config) { c.Params.LLCWays = 32 }, "LLCWays"},
		{"non-pow2 dir sets", func(c *Config) { c.Params.DirSetsPerBank = 96 }, "DirSetsPerBank"},
		{"32 dir ways", func(c *Config) { c.Params.DirWays = 32 }, "DirWays"},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(coherence.RaCCD, 1)
		tc.mut(&cfg)
		err := cfg.Check()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		// Run must refuse the same configuration without touching the
		// machine (a panic here would fail the test).
		if _, rerr := Run(workloads.MustGet("MD5", testScale), cfg); rerr == nil {
			t.Errorf("%s: Run accepted a config Check rejects", tc.name)
		}
	}
}
