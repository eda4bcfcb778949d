package tracefile_test

import (
	"bytes"
	"io"
	"testing"

	"raccd/internal/coherence"
	"raccd/internal/sim"
	"raccd/internal/tracefile"
	"raccd/internal/workloads"
)

// benchWorkload is the subject of every trace benchmark: Jacobi at a scale
// big enough to be representative, small enough for -benchtime 1x smoke
// runs (CI). Results land in BENCH_tracefile.json.
const (
	benchName  = "Jacobi"
	benchScale = 0.25
)

func benchTrace(b *testing.B) (*tracefile.Trace, []byte) {
	b.Helper()
	w := workloads.MustGet(benchName, benchScale)
	tr, err := tracefile.Record(w, 0)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tracefile.Encode(&buf, tr); err != nil {
		b.Fatal(err)
	}
	return tr, buf.Bytes()
}

// BenchmarkRecord measures graph construction plus access-stream capture.
func BenchmarkRecord(b *testing.B) {
	w := workloads.MustGet(benchName, benchScale)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tracefile.Record(w, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncode measures serialization throughput (bytes/s of RTF out).
func BenchmarkEncode(b *testing.B) {
	tr, raw := benchTrace(b)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tracefile.Encode(io.Discard, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecode measures deserialization throughput (bytes/s of RTF in).
func BenchmarkDecode(b *testing.B) {
	_, raw := benchTrace(b)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tracefile.Decode(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNativeBuild runs the benchmark from its native builder: the
// baseline TraceReplay is compared against.
func BenchmarkNativeBuild(b *testing.B) {
	w := workloads.MustGet(benchName, benchScale)
	cfg := sim.DefaultConfig(coherence.RaCCD, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(w, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceReplay runs the same benchmark from its decoded trace.
// The delta against BenchmarkNativeBuild is the full cost of replaying a
// recorded workload instead of generating it.
func BenchmarkTraceReplay(b *testing.B) {
	tr, _ := benchTrace(b)
	cfg := sim.DefaultConfig(coherence.RaCCD, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
