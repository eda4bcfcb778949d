// Package report runs the paper's evaluation section (§V) and turns its
// results into tables and figure series. Matrix expands an evaluation
// into its cells (Keys) and runs them; Simulate is the one in-process run
// body, behind a sweep's cells and the daemon's runs alike. Each FigN
// function reproduces one published figure or table; cmd/sweep and the
// benchmark harness print them.
package report

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"raccd/internal/coherence"
	"raccd/internal/sim"
)

// Key identifies one simulation run within a sweep.
type Key struct {
	Workload string
	System   coherence.Mode
	Ratio    int
	ADR      bool
}

// KeyOf returns the key r is indexed under.
func KeyOf(r sim.Result) Key { return Key{r.Workload, r.System, r.DirRatio, r.ADR} }

// String names the run in errors: "Jacobi/RaCCD+ADR 1:1".
func (k Key) String() string {
	return fmt.Sprintf("%s/%v%s 1:%d", k.Workload, k.System, k.adrTag(), k.Ratio)
}

// ProgressLine is the progress line of run k once it finished after
// cycles — the line a sweep prints and a daemon job streams — tagged
// " (cached)" when the result was recalled rather than simulated.
func (k Key) ProgressLine(cycles uint64, cached bool) string {
	line := fmt.Sprintf("%-9s %-8v%s 1:%-3d cycles=%d", k.Workload, k.System, k.adrTag(), k.Ratio, cycles)
	if cached {
		line += " (cached)"
	}
	return line
}

func (k Key) adrTag() string {
	if k.ADR {
		return "+ADR"
	}
	return ""
}

// Set indexes sweep results for figure generation.
type Set struct {
	m         map[Key]sim.Result
	workloads []string
}

// NewSet indexes results. Workload row order follows first appearance.
func NewSet(rs []sim.Result) *Set {
	s := &Set{m: make(map[Key]sim.Result, len(rs))}
	for _, r := range rs {
		s.Add(r)
	}
	return s
}

// Add inserts one more result.
func (s *Set) Add(r sim.Result) {
	if !slices.Contains(s.workloads, r.Workload) {
		s.workloads = append(s.workloads, r.Workload)
	}
	s.m[KeyOf(r)] = r
}

// Get looks up one run.
func (s *Set) Get(w string, sys coherence.Mode, ratio int, adr bool) (sim.Result, bool) {
	r, ok := s.m[Key{w, sys, ratio, adr}]
	return r, ok
}

// Workloads returns the row order.
func (s *Set) Workloads() []string { return s.workloads }

// Results returns every result in the Set in CSV row order (sorted by
// workload, system, ratio, ADR) — the deterministic enumeration the
// fabric coordinator merges per-run results through.
func (s *Set) Results() []sim.Result {
	keys := s.sortedKeys()
	out := make([]sim.Result, len(keys))
	for i, k := range keys {
		out[i] = s.m[k]
	}
	return out
}

// Ratios is the paper's directory reduction sweep.
var Ratios = []int{1, 2, 4, 8, 16, 64, 256}

// Systems is the paper's system comparison order.
var Systems = []coherence.Mode{coherence.FullCoh, coherence.PT, coherence.RaCCD}

// table renders an aligned text table: header row, one row per label, and an
// Average row computed arithmetically over defined cells per column.
func table(title string, cols []string, rows []string, cell func(row, col int) (float64, bool), unit string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-10s", "")
	for _, c := range cols {
		fmt.Fprintf(&b, "%10s", c)
	}
	b.WriteByte('\n')
	sums := make([]float64, len(cols))
	counts := make([]int, len(cols))
	for ri, r := range rows {
		fmt.Fprintf(&b, "%-10s", r)
		for ci := range cols {
			v, ok := cell(ri, ci)
			if !ok {
				fmt.Fprintf(&b, "%10s", "-")
				continue
			}
			fmt.Fprintf(&b, "%10.3f", v)
			sums[ci] += v
			counts[ci]++
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-10s", "Average")
	for ci := range cols {
		if counts[ci] == 0 {
			fmt.Fprintf(&b, "%10s", "-")
			continue
		}
		fmt.Fprintf(&b, "%10.3f", sums[ci]/float64(counts[ci]))
	}
	if unit != "" {
		fmt.Fprintf(&b, "\n(%s)\n", unit)
	} else {
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig2 reports the percentage of non-coherent cache blocks under PT and
// RaCCD (paper averages: PT 26.9 %, RaCCD 78.6 %).
func (s *Set) Fig2() string {
	cols := []string{"PT", "RaCCD"}
	sys := []coherence.Mode{coherence.PT, coherence.RaCCD}
	return table("Fig 2: non-coherent cache blocks (fraction of blocks never accessed coherently)",
		cols, s.workloads,
		func(ri, ci int) (float64, bool) {
			r, ok := s.Get(s.workloads[ri], sys[ci], 1, false)
			return r.NCFraction, ok
		}, "fraction 0..1; paper reports averages 0.269 (PT) and 0.786 (RaCCD)")
}

// perSystemRatio renders one table per system with a row per benchmark and a
// column per directory ratio, applying metric (optionally normalised to the
// benchmark's FullCoh 1:1 value).
func (s *Set) perSystemRatio(title string, metric func(sim.Result) float64, normalize bool, unit string) string {
	var b strings.Builder
	for _, sys := range Systems {
		cols := make([]string, len(Ratios))
		for i, n := range Ratios {
			cols[i] = fmt.Sprintf("1:%d", n)
		}
		b.WriteString(table(fmt.Sprintf("%s — %v", title, sys), cols, s.workloads,
			func(ri, ci int) (float64, bool) {
				r, ok := s.Get(s.workloads[ri], sys, Ratios[ci], false)
				if !ok {
					return 0, false
				}
				v := metric(r)
				if normalize {
					base, ok2 := s.Get(s.workloads[ri], coherence.FullCoh, 1, false)
					if !ok2 || metric(base) == 0 {
						return 0, false
					}
					v /= metric(base)
				}
				return v, true
			}, unit))
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig6 reports execution cycles by directory size, normalised per benchmark
// to FullCoh 1:1.
func (s *Set) Fig6() string {
	return s.perSystemRatio("Fig 6: normalised cycles by directory size",
		func(r sim.Result) float64 { return float64(r.Cycles) }, true,
		"normalised to FullCoh 1:1")
}

// Fig7a reports directory accesses normalised to FullCoh 1:1.
func (s *Set) Fig7a() string {
	return s.perSystemRatio("Fig 7a: directory accesses",
		func(r sim.Result) float64 { return float64(r.DirAccesses) }, true,
		"normalised to FullCoh 1:1")
}

// Fig7b reports the raw LLC hit ratio.
func (s *Set) Fig7b() string {
	return s.perSystemRatio("Fig 7b: LLC hit ratio",
		func(r sim.Result) float64 { return r.LLCHitRatio }, false,
		"hit fraction 0..1")
}

// Fig7c reports NoC traffic normalised to FullCoh 1:1.
func (s *Set) Fig7c() string {
	return s.perSystemRatio("Fig 7c: NoC traffic (byte-hops)",
		func(r sim.Result) float64 { return float64(r.NoCByteHops) }, true,
		"normalised to FullCoh 1:1")
}

// Fig7d reports directory dynamic energy normalised to FullCoh 1:1.
func (s *Set) Fig7d() string {
	return s.perSystemRatio("Fig 7d: directory dynamic energy",
		func(r sim.Result) float64 { return r.DirEnergy }, true,
		"normalised to FullCoh 1:1")
}

// Fig8 reports average directory occupancy at 1:1 (paper: FullCoh 65.7 %,
// PT 20.3 %, RaCCD 10.8 %).
func (s *Set) Fig8() string {
	cols := []string{"FullCoh", "PT", "RaCCD"}
	return table("Fig 8: average directory occupancy (1:1)", cols, s.workloads,
		func(ri, ci int) (float64, bool) {
			r, ok := s.Get(s.workloads[ri], Systems[ci], 1, false)
			return r.DirOccupancy, ok
		}, "fraction of entries valid, access-weighted")
}

// adrTable renders Fig 9/10: the three 1:1 systems plus RaCCD+ADR,
// normalised per benchmark to FullCoh 1:1.
func (s *Set) adrTable(title string, metric func(sim.Result) float64, unit string) string {
	cols := []string{"FullCoh", "PT", "RaCCD", "RaCCD+ADR"}
	return table(title, cols, s.workloads,
		func(ri, ci int) (float64, bool) {
			w := s.workloads[ri]
			base, ok := s.Get(w, coherence.FullCoh, 1, false)
			if !ok || metric(base) == 0 {
				return 0, false
			}
			var r sim.Result
			switch ci {
			case 0, 1, 2:
				r, ok = s.Get(w, Systems[ci], 1, false)
			case 3:
				r, ok = s.Get(w, coherence.RaCCD, 1, true)
			}
			if !ok {
				return 0, false
			}
			return metric(r) / metric(base), true
		}, unit)
}

// Fig9 reports normalised performance with adaptive directory reduction.
func (s *Set) Fig9() string {
	return s.adrTable("Fig 9: normalised performance with ADR (1:1 baselines)",
		func(r sim.Result) float64 { return float64(r.Cycles) },
		"cycles normalised to FullCoh 1:1; ADR must stay ≈ RaCCD")
}

// Fig10 reports normalised directory energy with adaptive directory
// reduction.
func (s *Set) Fig10() string {
	return s.adrTable("Fig 10: normalised directory dynamic energy with ADR",
		func(r sim.Result) float64 { return r.DirEnergy },
		"energy normalised to FullCoh 1:1")
}

// sortedKeys returns the Set's keys in CSV row order.
func (s *Set) sortedKeys() []Key {
	var keys []Key
	for k := range s.m {
		keys = append(keys, k)
	}
	sortKeys(keys)
	return keys
}

// sortKeys sorts keys into CSV row order: by workload, system, ratio,
// then ADR off before on.
func sortKeys(keys []Key) {
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.System != b.System {
			return a.System < b.System
		}
		if a.Ratio != b.Ratio {
			return a.Ratio < b.Ratio
		}
		return !a.ADR && b.ADR
	})
}

// CSV renders every result as comma-separated rows for external plotting.
func (s *Set) CSV() string {
	keys := s.sortedKeys()
	var b strings.Builder
	b.WriteString("workload,system,ratio,adr,cycles,dir_accesses,llc_hit_ratio,noc_byte_hops,dir_energy,dir_occupancy,nc_fraction,l1_hit_ratio,mem_reads,mem_writes,tasks\n")
	for _, k := range keys {
		r := s.m[k]
		fmt.Fprintf(&b, "%s,%v,%d,%v,%d,%d,%.6f,%d,%.3f,%.6f,%.6f,%.6f,%d,%d,%d\n",
			r.Workload, r.System, r.DirRatio, r.ADR, r.Cycles, r.DirAccesses,
			r.LLCHitRatio, r.NoCByteHops, r.DirEnergy, r.DirOccupancy,
			r.NCFraction, r.L1HitRatio, r.MemReads, r.MemWrites, r.TasksRun)
	}
	return b.String()
}
