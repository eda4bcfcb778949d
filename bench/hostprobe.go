package bench

import "time"

// The host probe. A shared 2-CPU machine drifts in speed by 10–20% over
// tens of seconds — more than the bounds the benchmark gates on — so every
// time the benchmark reports is scaled to a reference host speed. The
// speed is measured between the segments of a window, while the workload
// is idle, by a fixed kernel that lives here rather than in the code under
// test: an 8-way set-associative cache model over a skewed random block
// stream with a 6 MiB working set. It suffers what slows the simulator —
// cache and memory contention as much as clock speed — and on the
// reference host its speed correlates at 0.97 with the simulator's over
// 10-second windows, where a SHA-256 kernel correlates at 0.7 (see
// README.md). Each measurement first reruns the kernel untimed, so the
// table is warm whatever the workload left in the caches.
const (
	probeSets     = 1 << 16
	probeWays     = 8
	probeAccesses = 100_000
	probeReps     = 2
	// probeRef is the kernel's time on the reference host: the 2-CPU
	// x86-64 machine at 2.1 GHz the benchmark's sizes are calibrated on.
	probeRef = 1700 * time.Microsecond
)

type hostProbe struct {
	tags    []uint64 // block+1 per way, 0 when empty
	age     []uint32 // last-use stamp per way
	clock   uint32
	x       uint64 // xorshift state
	samples []float64
	// points holds the median of each measurement.
	points []float64
}

func newHostProbe() *hostProbe {
	p := &hostProbe{
		tags: make([]uint64, probeSets*probeWays),
		age:  make([]uint32, probeSets*probeWays),
		x:    88172645463325252,
	}
	p.kernel() // fault the tables in before the first timing
	return p
}

// kernel runs probeAccesses cache lookups and returns the hit count.
func (p *hostProbe) kernel() int {
	hits := 0
	for i := 0; i < probeAccesses; i++ {
		p.x ^= p.x << 13
		p.x ^= p.x >> 7
		p.x ^= p.x << 17
		blk := p.x % (1 << 20)
		if p.x&3 != 0 {
			blk &= 1<<16 - 1 // three accesses in four go to a hot region
		}
		set := int(blk%probeSets) * probeWays
		way, oldest := -1, 0
		for w := 0; w < probeWays; w++ {
			if p.tags[set+w] == blk+1 {
				way = w
				break
			}
			if p.age[set+w] < p.age[set+oldest] {
				oldest = w
			}
		}
		if way >= 0 {
			hits++
		} else {
			way = oldest
			p.tags[set+way] = blk + 1
		}
		p.clock++
		p.age[set+way] = p.clock
	}
	return hits
}

// measure warms the kernel's table, then times the kernel probeReps
// times: one measurement point.
func (p *hostProbe) measure() {
	p.kernel()
	point := make([]float64, probeReps)
	for i := range point {
		start := time.Now()
		p.kernel()
		point[i] = float64(time.Since(start))
	}
	p.samples = append(p.samples, point...)
	p.points = append(p.points, median(point))
}

// factor is the reference kernel time over the median measured one.
func (p *hostProbe) factor() float64 { return float64(probeRef) / median(p.samples) }

// localFactor is the factor over the measurement points around the
// stretch between points k and k+1 — the host's speed while it ran.
func (p *hostProbe) localFactor(k int) float64 {
	lo, hi := max(k-1, 0), min(k+3, len(p.points))
	return float64(probeRef) / median(p.points[lo:hi])
}
