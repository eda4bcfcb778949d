package exec

import (
	"testing"

	"raccd/client"
	"raccd/internal/coherence"
	"raccd/internal/sim"
)

// TestBuildConfigDefaults: a request that leaves the directory ratio and
// validation unset gets 1:1 and validation on; an explicit validate=false
// is kept.
func TestBuildConfigDefaults(t *testing.T) {
	cfg, err := BuildConfig(client.RunRequest{Workload: "Jacobi", System: "RaCCD"}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.System != coherence.RaCCD || cfg.DirRatio != 1 || !cfg.Validate {
		t.Fatalf("defaults: system %v, dir ratio %d, validate %v; want RaCCD, 1, true", cfg.System, cfg.DirRatio, cfg.Validate)
	}
	off := false
	cfg, err = BuildConfig(client.RunRequest{Workload: "Jacobi", System: "RaCCD", Validate: &off}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Validate {
		t.Fatal("validate=false was not kept")
	}
}

// TestBuildConfigKnobs: every machine knob of a run request reaches the
// config and changes its fingerprint, so requests that differ in a knob
// never share a cached result.
func TestBuildConfigKnobs(t *testing.T) {
	plain := client.RunRequest{Workload: "Jacobi", System: "RaCCD"}
	prefetching := plain
	prefetching.PrefetchDegree = 2
	for _, tc := range []struct {
		name    string
		from    client.RunRequest
		set     func(*client.RunRequest)
		reached func(sim.Config) bool
	}{
		{"NCRTLatency", plain, func(r *client.RunRequest) { r.NCRTLatency = 7 },
			func(c sim.Config) bool { return c.Params.NCRTLookupCycles == 7 }},
		{"NCRTEntries", plain, func(r *client.RunRequest) { r.NCRTEntries = 8 },
			func(c sim.Config) bool { return c.Params.NCRTEntries == 8 }},
		{"WriteThrough", plain, func(r *client.RunRequest) { r.WriteThrough = true },
			func(c sim.Config) bool { return c.Params.WriteThrough }},
		{"Contiguity", plain, func(r *client.RunRequest) { r.Contiguity = 0.5 },
			func(c sim.Config) bool { return c.Params.Contiguity == 0.5 }},
		{"Scheduler", plain, func(r *client.RunRequest) { r.Scheduler = "lifo" },
			func(c sim.Config) bool { return c.Scheduler == "lifo" }},
		{"SMTWays", plain, func(r *client.RunRequest) { r.SMTWays = 2 },
			func(c sim.Config) bool { return c.SMTWays == 2 }},
		{"Core", plain, func(r *client.RunRequest) { r.Core = "ooo" },
			func(c sim.Config) bool { return c.Core == "ooo" }},
		{"PrefetchDegree", plain, func(r *client.RunRequest) { r.PrefetchDegree = 2 },
			func(c sim.Config) bool { return c.PrefetchDegree == 2 }},
		// A distance is only valid beside a degree, and differs from
		// the default distance a bare degree selects.
		{"PrefetchDistance", prefetching, func(r *client.RunRequest) { r.PrefetchDistance = 8 },
			func(c sim.Config) bool { return c.PrefetchDistance == 8 }},
	} {
		from, err := BuildConfig(tc.from, "", 0)
		if err != nil {
			t.Fatalf("%s: base: %v", tc.name, err)
		}
		req := tc.from
		tc.set(&req)
		cfg, err := BuildConfig(req, "", 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !tc.reached(cfg) {
			t.Errorf("%s did not reach the config: %+v", tc.name, cfg)
		}
		if cfg.Fingerprint() == from.Fingerprint() {
			t.Errorf("%s did not change the fingerprint %s", tc.name, cfg.Fingerprint())
		}
	}
}

// TestBuildConfigMachine: a preset name selects its geometry, and an
// unknown system or machine is an error rather than a default.
func TestBuildConfigMachine(t *testing.T) {
	cfg, err := BuildConfig(client.RunRequest{Workload: "Jacobi", System: "PT", Machine: "m64"}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Params.Cores != 64 {
		t.Fatalf("m64: %d cores, want 64", cfg.Params.Cores)
	}
	for _, req := range []client.RunRequest{
		{Workload: "Jacobi", System: "MESI"},
		{Workload: "Jacobi", System: "PT", Machine: "m48"},
		{Workload: "Jacobi", System: "PT", Machine: "bogus"},
	} {
		if _, err := BuildConfig(req, "", 0); err == nil {
			t.Errorf("system %q machine %q: no error", req.System, req.Machine)
		}
	}
}
