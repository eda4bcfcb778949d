package raccd

import (
	"bytes"
	"strings"
	"testing"
)

func TestBenchmarkRegistry(t *testing.T) {
	if len(PaperBenchmarks()) != 9 {
		t.Fatalf("paper benchmarks = %d, want 9", len(PaperBenchmarks()))
	}
	if len(Benchmarks()) != 10 {
		t.Fatalf("benchmarks = %d, want 10", len(Benchmarks()))
	}
	if _, err := NewWorkload("Jacobi", 0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := NewWorkload("nope", 0.1); err == nil {
		t.Fatal("unknown benchmark did not error")
	}
}

func TestRunAllSystems(t *testing.T) {
	for _, sys := range []System{FullCoh, PT, RaCCD} {
		w, err := NewWorkload("Kmeans", 0.08)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(w, DefaultConfig(sys, 4))
		if err != nil {
			t.Fatalf("%v: %v", sys, err)
		}
		if res.Cycles == 0 || res.System != sys || res.DirRatio != 4 {
			t.Fatalf("%v: bad result %+v", sys, res)
		}
	}
}

func TestCustomWorkload(t *testing.T) {
	data := Range{Start: 0x1000_0000, Size: 64 * 64}
	w := NewCustomWorkload("custom", func(g *TaskGraph) {
		g.Add("produce", []Dep{{Range: data, Mode: Out}}, func(ctx *Ctx) {
			ctx.StoreRange(data)
		})
		g.Add("consume", []Dep{{Range: data, Mode: In}}, func(ctx *Ctx) {
			ctx.LoadRange(data)
		})
	})
	res, err := Run(w, DefaultConfig(RaCCD, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksRun != 2 {
		t.Fatalf("tasks run = %d, want 2", res.TasksRun)
	}
	if res.NCFraction < 0.5 {
		t.Fatalf("annotated custom workload NC fraction %.2f, want > 0.5", res.NCFraction)
	}
}

func TestConfigKnobs(t *testing.T) {
	w, _ := NewWorkload("Gauss", 0.08)
	cfg := DefaultConfig(RaCCD, 1)
	cfg.Scheduler = "locality"
	cfg.NCRTLatency = 5
	cfg.WriteThrough = true
	cfg.Contiguity = 0.5
	if _, err := Run(w, cfg); err != nil {
		t.Fatal(err)
	}
	cfg = DefaultConfig(RaCCD, 1)
	cfg.ADR = true
	if _, err := Run(w, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestTable3Exposed(t *testing.T) {
	if out := Table3(); !strings.Contains(out, "Table III") {
		t.Fatalf("Table3 output malformed:\n%s", out)
	}
}

func TestSweepSmall(t *testing.T) {
	m := NewSweep(0.08)
	m.Workloads = []string{"MD5", "JPEG"}
	m.Ratios = []int{1, 64}
	set, err := RunSweep(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, render := range []func() string{set.Fig2, set.Fig6, set.Fig7a, set.Fig7b, set.Fig7c, set.Fig7d, set.Fig8, set.Fig9, set.Fig10} {
		if out := render(); !strings.Contains(out, "MD5") {
			t.Fatalf("figure missing benchmark:\n%s", out)
		}
	}
}

func TestValidateSelfCheck(t *testing.T) {
	if err := Validate(); err != nil {
		t.Fatal(err)
	}
}

// A trace that fails to decode yields its error and no workload: the
// returned interface is nil, not a nil *Trace inside a Workload.
func TestReadTraceErrorHasNoWorkload(t *testing.T) {
	w, err := ReadTrace(strings.NewReader("not a trace"))
	if err == nil {
		t.Fatal("ReadTrace accepted bytes that are not a trace")
	}
	if w != nil {
		t.Fatalf("ReadTrace returned workload %#v with error %v, want nil", w, err)
	}
}

// The public trace API round-trips: a workload written with WriteTrace and
// read back with ReadTrace produces identical results under every system.
func TestPublicTraceRoundTrip(t *testing.T) {
	w, err := NewWorkload("Histo", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, w); err != nil {
		t.Fatal(err)
	}
	replay, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if replay.Name() != "Histo" {
		t.Fatalf("trace name = %q", replay.Name())
	}
	for _, sys := range []System{FullCoh, PT, RaCCD} {
		cfg := DefaultConfig(sys, 16)
		native, err := Run(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(replay, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cycles != native.Cycles || got.DirAccesses != native.DirAccesses ||
			got.NoCByteHops != native.NoCByteHops || got.NCFraction != native.NCFraction {
			t.Fatalf("%v: replay diverged: %+v vs %+v", sys, got, native)
		}
	}
}

func TestSyntheticWorkloadExposed(t *testing.T) {
	if len(SyntheticPresets()) < 6 {
		t.Fatalf("presets: %v", SyntheticPresets())
	}
	w, err := NewSyntheticWorkload("forkjoin/width=4/depth=3")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(w, DefaultConfig(RaCCD, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksRun == 0 {
		t.Fatal("synthetic workload ran no tasks")
	}
	if _, err := NewSyntheticWorkload("nope"); err == nil {
		t.Fatal("unknown preset did not error")
	}
}

// The public Config.Check covers the library-level knobs on top of the
// simulator's checks, and Run refuses what Check refuses.
func TestPublicConfigCheck(t *testing.T) {
	if err := DefaultConfig(RaCCD, 64).Check(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"contiguity", func(c *Config) { c.Contiguity = 1.5 }, "contiguity"},
		{"ncrt entries", func(c *Config) { c.NCRTEntries = -2 }, "NCRT"},
		{"scheduler", func(c *Config) { c.Scheduler = "rr" }, "scheduler"},
		{"ratio", func(c *Config) { c.DirRatio = 5 }, "divide"},
		{"smt", func(c *Config) { c.SMTWays = 99 }, "SMT"},
	}
	w, err := NewWorkload("MD5", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		cfg := DefaultConfig(RaCCD, 1)
		tc.mut(&cfg)
		cerr := cfg.Check()
		if cerr == nil || !strings.Contains(cerr.Error(), tc.want) {
			t.Errorf("%s: Check = %v, want mention of %q", tc.name, cerr, tc.want)
		}
		if _, rerr := Run(w, cfg); rerr == nil {
			t.Errorf("%s: Run accepted an invalid config", tc.name)
		}
	}
}

// Fingerprint and WorkloadIdentity are the public cache-key halves used
// by the raccdd service and sweep -cache.
func TestFingerprintAndIdentity(t *testing.T) {
	a := DefaultConfig(RaCCD, 16)
	b := DefaultConfig(RaCCD, 16)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical configs fingerprint differently")
	}
	b.NCRTLatency = 5
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("NCRTLatency override not covered by the fingerprint")
	}

	id1, err := WorkloadIdentity("Jacobi", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := WorkloadIdentity("Jacobi", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 {
		t.Fatal("scale must be part of a benchmark's identity")
	}
	if _, err := WorkloadIdentity("NoSuchBench", 1.0); err == nil {
		t.Fatal("unknown workload must not get an identity")
	}
	// synth identities canonicalize: an explicit default is no override.
	s1, err := WorkloadIdentity("synth:chain/width=16", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := WorkloadIdentity("synth:chain", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatalf("synth identity not canonical: %q vs %q", s1, s2)
	}
}
