package workloads

import (
	"testing"

	"raccd/internal/rts"
)

// BenchmarkGraphBuild builds each paper benchmark's task graph at scale 1,
// the graph every simulated run starts from; allocations are reported
// because the dependence tracker's cost shows up as much in the heap as in
// the time.
func BenchmarkGraphBuild(b *testing.B) {
	for _, name := range PaperSet() {
		w, err := Get(name, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.Build(rts.NewGraph())
			}
		})
	}
}
