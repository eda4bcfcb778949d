package bench

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// Def describes one reported metric, exactly as BENCHMARK.json lists it.
type Def struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// EndToEnd are the metrics a user of the simulator or the daemon sees.
// Every workload reports all of them from the untraced run.
var EndToEnd = []Def{
	{Name: "runs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.15},
}

// profiledPkgs maps each <bucket>.cpu_share metric to the import-path
// prefixes whose flat CPU samples it sums.
var profiledPkgs = []struct {
	bucket   string
	prefixes []string
}{
	{"cache", []string{"raccd/internal/cache"}},
	{"directory", []string{"raccd/internal/directory"}},
	{"coherence", []string{"raccd/internal/coherence"}},
	{"mem", []string{"raccd/internal/mem"}},
	{"vm", []string{"raccd/internal/vm"}},
	{"noc", []string{"raccd/internal/noc"}},
	{"classify", []string{"raccd/internal/classify"}},
	{"core", []string{"raccd/internal/core"}},
	{"cpu", []string{"raccd/internal/cpu"}},
	{"rts", []string{"raccd/internal/rts"}},
	{"workloads", []string{"raccd/internal/workloads"}},
	{"tracefile", []string{"raccd/internal/tracefile"}},
	{"service", []string{"raccd/internal/service", "raccd/client"}},
	{"resultstore", []string{"raccd/internal/resultstore"}},
	{"net_http", []string{"net/http"}},
	{"encoding_json", []string{"encoding/json"}},
	{"go_runtime", []string{"runtime", "internal/runtime"}},
}

// PerLayer are the metrics of single layers, reported by the traced and
// profiled runs (-trace). A layer that the workload's timed operations
// never pass through reports 0.
var PerLayer = append([]Def{
	{Name: "workloads.build_ms", Unit: "ms", Better: "lower"},
	{Name: "tracefile.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "tracefile.bytes_per_access", Unit: "B/access", Better: "lower"},
	{Name: "coherence.new_ms", Unit: "ms", Better: "lower"},
	{Name: "coherence.ns_per_access", Unit: "ns", Better: "lower"},
	{Name: "coherence.l1_hit_ratio", Unit: "frac", Better: "higher"},
	{Name: "coherence.coh_fill_frac", Unit: "frac", Better: "lower"},
	{Name: "rts.ns_per_access", Unit: "ns", Better: "lower"},
	{Name: "cpu.ns_per_access", Unit: "ns", Better: "lower"},
	{Name: "cpu.prefetch_useful_frac", Unit: "frac", Better: "higher"},
	{Name: "directory.recalls_per_kaccess", Unit: "1/kaccess", Better: "lower"},
	{Name: "noc.byte_hops_per_access", Unit: "byte-hops/access", Better: "lower"},
	{Name: "sim.validate_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.coverage", Unit: "frac", Better: "higher"},
	{Name: "trace.capture_overhead", Unit: "frac", Better: "lower"},
	{Name: "client.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "client.wait_ms", Unit: "ms", Better: "lower"},
	{Name: "client.result_ms", Unit: "ms", Better: "lower"},
	{Name: "queue.wait_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.build_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.exec_ms", Unit: "ms", Better: "lower"},
	{Name: "store.ms", Unit: "ms", Better: "lower"},
	{Name: "fabric.rtt_ms", Unit: "ms", Better: "lower"},
	{Name: "resultstore.hit_us", Unit: "us", Better: "lower"},
	{Name: "resultstore.write_ms", Unit: "ms", Better: "lower"},
	{Name: "resultstore.hit_ratio", Unit: "frac", Better: "higher"},
	{Name: "fabric.worker_balance", Unit: "frac", Better: "higher"},
	{Name: "fabric.sims_per_fresh_run", Unit: "count", Better: "lower"},
	{Name: "service.jobs_retained", Unit: "count", Better: "lower"},
	{Name: "go.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "go.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "go.gc_cpu_frac", Unit: "frac", Better: "lower"},
}, shareDefs()...)

func shareDefs() []Def {
	out := make([]Def, len(profiledPkgs))
	for i, p := range profiledPkgs {
		out[i] = Def{Name: p.bucket + ".cpu_share", Unit: "frac", Better: "lower"}
	}
	return out
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metrics maps metric names to values.
type Metrics map[string]Metric

// set records a catalogued metric; naming an uncatalogued one is a bug.
func (m Metrics) set(name string, v float64) {
	for _, defs := range [][]Def{EndToEnd, PerLayer} {
		for _, d := range defs {
			if d.Name == name {
				m[name] = Metric{Value: v, Unit: d.Unit}
				return
			}
		}
	}
	panic("bench: uncatalogued metric " + name)
}

// fillZero reports every metric of defs that is still unset as 0: the
// layer is not on the path of this workload's timed operations.
func (m Metrics) fillZero(defs []Def) {
	for _, d := range defs {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = Metric{Value: 0, Unit: d.Unit}
		}
	}
}

// scaleTimes expresses every time in m at reference host speed, given f,
// the reference probe time over the measured one: times scale by f, rates
// by 1/f, and every other unit is left alone.
func (m Metrics) scaleTimes(f float64) {
	for name, v := range m {
		switch v.Unit {
		case "s", "ms", "us", "ns":
			v.Value *= f
		case "1/s":
			v.Value /= f
		default:
			continue
		}
		m[name] = v
	}
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs, which
// it sorts in place. Failed operations are recorded as +Inf, so they count
// as missing every latency limit.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// peakRSSMiB returns the process's peak resident set size (VmHWM) in MiB.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("bench: peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("bench: no VmHWM in /proc/self/status")
}

// goCounters reads the Go runtime counters behind the go.* metrics.
type goCounters struct {
	allocs, bytes  float64 // cumulative heap allocations
	gcCPU, busyCPU float64 // cumulative CPU seconds spent in GC and not idle
}

var goCounterNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readGoCounters() (goCounters, error) {
	samples := make([]metrics.Sample, len(goCounterNames))
	for i, n := range goCounterNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	vals := make([]float64, len(samples))
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			vals[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			vals[i] = s.Value.Float64()
		default:
			return goCounters{}, fmt.Errorf("bench: runtime metric %s unsupported by this Go runtime", s.Name)
		}
	}
	return goCounters{allocs: vals[0], bytes: vals[1], gcCPU: vals[2], busyCPU: vals[3] - vals[4]}, nil
}
