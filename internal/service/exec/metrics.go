package exec

import (
	"sort"
	"sync"
	"time"

	"raccd/internal/coherence"
	"raccd/internal/sim"
)

// LatencyBuckets are the upper bounds (seconds) of the per-scheme
// run-latency histogram, Prometheus classic style: cumulative
// `le`-labeled buckets with a +Inf bucket implied by the count.
var LatencyBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Metrics accumulates the executor's counters: how executed-run latency
// distributes per coherence scheme (cache hits are not runs), per-phase
// job wall times, and prefetcher totals. The zero value is ready.
type Metrics struct {
	mu       sync.Mutex
	schemes  map[string]*histogram
	phases   map[string]*histogram
	prefetch PrefetchTotals
}

// histogram is one scheme's latency distribution: per-bucket (non-
// cumulative) counts plus sum and total.
type histogram struct {
	counts []uint64 // len(LatencyBuckets)+1; last is the +Inf overflow
	sum    float64
	total  uint64
}

// observe adds secs to the histogram named name in *hists, creating
// both on first use. The caller holds the Metrics lock.
func observe(hists *map[string]*histogram, name string, secs float64) {
	if *hists == nil {
		*hists = make(map[string]*histogram)
	}
	h := (*hists)[name]
	if h == nil {
		h = &histogram{counts: make([]uint64, len(LatencyBuckets)+1)}
		(*hists)[name] = h
	}
	h.counts[sort.SearchFloat64s(LatencyBuckets, secs)]++
	h.sum += secs
	h.total++
}

// Observe records one executed simulation; safe for concurrent use.
func (m *Metrics) Observe(system coherence.Mode, elapsed time.Duration, res sim.Result) {
	m.mu.Lock()
	defer m.mu.Unlock()
	observe(&m.schemes, system.String(), elapsed.Seconds())
	m.prefetch.Issued += res.PrefetchIssued
	m.prefetch.Useful += res.PrefetchUseful
	m.prefetch.Late += res.PrefetchLate
}

// PrefetchTotals accumulates the prefetcher counters of every executed
// simulation (zero while no run armed a prefetcher).
type PrefetchTotals struct {
	Issued uint64
	Useful uint64
	Late   uint64
}

// Prefetch returns the accumulated prefetcher counters.
func (m *Metrics) Prefetch() PrefetchTotals {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.prefetch
}

// ObservePhase records one finished job's wall time in the named phase
// (queue_wait, build, exec, store, fabric_rtt); safe for concurrent use.
func (m *Metrics) ObservePhase(name string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	observe(&m.phases, name, d.Seconds())
}

// HistogramSnapshot is one scheme's latency distribution. Counts[i] is
// the number of observations at or below LatencyBuckets[i]; the last
// element is the +Inf overflow. Cumulative rendering is the exporter's
// job.
type HistogramSnapshot struct {
	Counts []uint64
	Sum    float64
	Total  uint64
}

// SchemeSnapshot returns a coherent copy of the per-scheme run-latency
// histograms.
func (m *Metrics) SchemeSnapshot() map[string]HistogramSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return snapshot(m.schemes)
}

// PhaseSnapshot returns a coherent copy of the per-phase histograms.
func (m *Metrics) PhaseSnapshot() map[string]HistogramSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return snapshot(m.phases)
}

// snapshot copies hists; the caller holds the Metrics lock.
func snapshot(hists map[string]*histogram) map[string]HistogramSnapshot {
	out := make(map[string]HistogramSnapshot, len(hists))
	for name, h := range hists {
		out[name] = HistogramSnapshot{
			Counts: append([]uint64(nil), h.counts...),
			Sum:    h.sum,
			Total:  h.total,
		}
	}
	return out
}
