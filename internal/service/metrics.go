package service

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"raccd/internal/service/exec"
	"raccd/internal/service/queue"
)

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format (hand-rolled — the repo takes no dependencies): queue depth,
// job and run counters, result-store hit/miss/coalesce/eviction tallies,
// and a per-scheme run-latency histogram with classic cumulative `le`
// buckets, whose _count and _sum are the simulations executed (cache hits
// excluded) and their busy seconds. Counters move only when this daemon
// executes simulations itself; a coordinator scrapes its workers for
// execution metrics and exposes its own queue and job series here.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.opts.Store.Stats()
	byState, runsDone := s.q.Counts()

	var b strings.Builder
	head := func(name, typ, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}

	head("raccd_uptime_seconds", "gauge", "Seconds since the daemon started.")
	fmt.Fprintf(&b, "raccd_uptime_seconds %s\n", promFloat(time.Since(s.start).Seconds()))

	head("raccd_queue_depth", "gauge", "Jobs accepted and not yet finished; -queue bounds it.")
	fmt.Fprintf(&b, "raccd_queue_depth %d\n", s.q.Depth())

	head("raccd_jobs", "gauge", "Jobs accepted since the daemon started, by lifecycle state; finished jobs the daemon no longer lists still count.")
	// Every state is exposed, zero or not, so a dashboard can rate()
	// each series without gaps.
	for _, state := range queue.States {
		fmt.Fprintf(&b, "raccd_jobs{state=%q} %d\n", state, byState[string(state)])
	}

	head("raccd_runs_completed_total", "counter", "Simulation runs completed across all jobs accepted since the daemon started (cached or executed).")
	fmt.Fprintf(&b, "raccd_runs_completed_total %d\n", runsDone)

	head("raccd_store_hits_total", "counter", "Result-store lookups served from the store, from memory or from disk.")
	fmt.Fprintf(&b, "raccd_store_hits_total %d\n", st.Hits)
	head("raccd_store_misses_total", "counter", "Result-store lookups that had to simulate.")
	fmt.Fprintf(&b, "raccd_store_misses_total %d\n", st.Misses)
	head("raccd_store_coalesced_total", "counter", "Lookups coalesced onto an in-flight identical computation.")
	fmt.Fprintf(&b, "raccd_store_coalesced_total %d\n", st.Coalesced)
	head("raccd_store_evictions_total", "counter", "Results evicted by the store's size bound.")
	fmt.Fprintf(&b, "raccd_store_evictions_total %d\n", st.Evictions)
	head("raccd_store_bytes", "gauge", "Bytes of results currently stored.")
	fmt.Fprintf(&b, "raccd_store_bytes %d\n", st.Bytes)
	head("raccd_store_objects", "gauge", "Results currently stored.")
	fmt.Fprintf(&b, "raccd_store_objects %d\n", st.Objects)

	backends := s.coord.BackendStatuses()
	head("raccd_fabric_backend_up", "gauge", "Backend health as of the last probe (Local backends are always up).")
	for _, bs := range backends {
		up := 0
		if bs.Up {
			up = 1
		}
		fmt.Fprintf(&b, "raccd_fabric_backend_up{backend=%q} %d\n", bs.Name, up)
	}
	head("raccd_fabric_backend_requests_total", "counter", "Runs dispatched to each backend.")
	for _, bs := range backends {
		fmt.Fprintf(&b, "raccd_fabric_backend_requests_total{backend=%q} %d\n", bs.Name, bs.Requests)
	}
	head("raccd_fabric_backend_errors_total", "counter", "Runs of the dispatches that failed on each backend (cancellations excluded).")
	for _, bs := range backends {
		fmt.Fprintf(&b, "raccd_fabric_backend_errors_total{backend=%q} %d\n", bs.Name, bs.Errors)
	}

	pf := s.ex.Metrics().Prefetch()
	head("raccd_prefetch_issued_total", "counter", "Prefetch accesses issued into the coherence hierarchy by executed simulations.")
	fmt.Fprintf(&b, "raccd_prefetch_issued_total %d\n", pf.Issued)
	head("raccd_prefetch_useful_total", "counter", "Demand accesses fully covered by an earlier prefetch.")
	fmt.Fprintf(&b, "raccd_prefetch_useful_total %d\n", pf.Useful)
	head("raccd_prefetch_late_total", "counter", "Demand accesses that hit an in-flight (too-late) prefetch.")
	fmt.Fprintf(&b, "raccd_prefetch_late_total %d\n", pf.Late)

	head("raccd_run_latency_seconds", "histogram", "Latency of executed simulations, by coherence scheme.")
	writeHistograms(&b, "raccd_run_latency_seconds", "scheme", s.ex.Metrics().SchemeSnapshot())

	head("raccd_job_phase_seconds", "histogram", "Per-job wall time by phase (queue_wait, build, exec, store, fabric_rtt), observed at job completion.")
	writeHistograms(&b, "raccd_job_phase_seconds", "phase", s.ex.Metrics().PhaseSnapshot())

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, b.String())
}

// writeHistograms renders labeled histograms over exec.LatencyBuckets in
// classic Prometheus style: cumulative le buckets, +Inf, sum and count.
func writeHistograms(b *strings.Builder, name, label string, hists map[string]exec.HistogramSnapshot) {
	for _, lv := range sortedNames(hists) {
		h := hists[lv]
		var cum uint64
		for i, ub := range exec.LatencyBuckets {
			cum += h.Counts[i]
			fmt.Fprintf(b, "%s_bucket{%s=%q,le=%q} %d\n", name, label, lv, promFloat(ub), cum)
		}
		cum += h.Counts[len(exec.LatencyBuckets)]
		fmt.Fprintf(b, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, label, lv, cum)
		fmt.Fprintf(b, "%s_sum{%s=%q} %s\n", name, label, lv, promFloat(h.Sum))
		fmt.Fprintf(b, "%s_count{%s=%q} %d\n", name, label, lv, h.Total)
	}
}

// promFloat renders a float the way Prometheus expects (shortest exact
// form; no exponent surprises for the magnitudes we emit).
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sortedNames returns a map's keys sorted, for a stable exposition.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
