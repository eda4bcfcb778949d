package coherence

import (
	"testing"

	"raccd/internal/mem"
)

// BenchmarkAccessHotPath measures the cost of one simulated memory
// reference through the full hierarchy, per mode, on the L1-miss path.
// Each iteration reads or writes three consecutive blocks from one of four
// cores in turn, then moves eight blocks on through a footprint larger
// than the LLC, so no block comes back before its L1 line is evicted and
// every access misses the L1, as almost every access of the Fig 2 sweep
// does. The footprint is registered with core 0's NCRT only, so under
// RaCCD core 0's quarter of the accesses fill non-coherently and the rest
// coherently. The reported l1-hit-ratio is 0.
func BenchmarkAccessHotPath(b *testing.B) {
	for _, mode := range []Mode{FullCoh, PT, RaCCD} {
		b.Run(mode.String(), func(b *testing.B) {
			h := New(mode, DefaultParams())
			const footprint = 1 << 22 // 4 MiB: larger than the LLC
			if mode == RaCCD {
				h.RegisterRegion(0, mem.Range{Start: 0, Size: footprint})
			}
			var addr mem.Addr
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Access(i&3, addr, i&7 == 0, uint64(i))
				h.Access(i&3, addr+64, false, 0)
				h.Access(i&3, addr+128, false, 0)
				addr = (addr + 8*mem.BlockSize) % footprint
			}
			b.ReportMetric(float64(h.Stats.L1Hits)/float64(h.Stats.Accesses), "l1-hit-ratio")
		})
	}
}

// BenchmarkAccessL1Hit isolates the pure hit path: every access after the
// first hits the same block in the same core's L1.
func BenchmarkAccessL1Hit(b *testing.B) {
	h := New(FullCoh, DefaultParams())
	h.Access(0, 0x1000, false, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0, 0x1000, false, 0)
	}
}
