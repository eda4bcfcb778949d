package resultstore

import (
	"testing"

	"raccd/internal/coherence"
	"raccd/internal/sim"
	"raccd/internal/workloads"
)

// benchConfig is a representative Fig 2 cell: Jacobi under PT at 1:1.
func benchConfig() sim.Config {
	return sim.Config{System: coherence.PT, DirRatio: 1, Validate: true}
}

const benchScale = 0.25

// BenchmarkSimulate is the cost a cache hit avoids: one real simulation
// of the representative run.
func BenchmarkSimulate(b *testing.B) {
	w, err := workloads.Get("Jacobi", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(w, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheHit measures serving the same run from the store: the
// first hit reads and decodes the object file, every later one costs a
// stat and a recency refresh of it beside the decoded copy in memory.
func BenchmarkCacheHit(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchConfig()
	w, err := workloads.Get("Jacobi", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sim.Run(w, cfg)
	if err != nil {
		b.Fatal(err)
	}
	id, err := workloads.Identity("Jacobi", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	key := KeyOf(cfg.Fingerprint(), id)
	if err := s.Put(key, res); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(key); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkKeyOf measures key construction (fingerprint hashing).
func BenchmarkKeyOf(b *testing.B) {
	cfg := benchConfig()
	id, err := workloads.Identity("Jacobi", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KeyOf(cfg.Fingerprint(), id)
	}
}
