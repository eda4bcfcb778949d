package report

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"raccd/internal/coherence"
	"raccd/internal/sim"
)

// ParseCSV reads results written by Set.CSV back into a Set, so sweeps can
// be archived and compared across simulator versions (cmd/raccdreport).
func ParseCSV(r io.Reader) (*Set, error) {
	sc := bufio.NewScanner(r)
	set := NewSet(nil)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if line == 1 {
			if !strings.HasPrefix(text, "workload,") {
				return nil, fmt.Errorf("report: line 1: missing CSV header")
			}
			continue
		}
		f := strings.Split(text, ",")
		if len(f) != 15 {
			return nil, fmt.Errorf("report: line %d: %d fields, want 15", line, len(f))
		}
		var res sim.Result
		res.Workload = f[0]
		sys, err := coherence.ParseMode(f[1])
		if err != nil {
			return nil, fmt.Errorf("report: line %d: %v", line, err)
		}
		res.System = sys
		parseU := func(s string) uint64 {
			if err != nil {
				return 0
			}
			var v uint64
			v, err = strconv.ParseUint(s, 10, 64)
			return v
		}
		parseF := func(s string) float64 {
			if err != nil {
				return 0
			}
			var v float64
			v, err = strconv.ParseFloat(s, 64)
			return v
		}
		ratio := parseU(f[2])
		res.DirRatio = int(ratio)
		res.ADR = f[3] == "true"
		res.Cycles = parseU(f[4])
		res.DirAccesses = parseU(f[5])
		res.LLCHitRatio = parseF(f[6])
		res.NoCByteHops = parseU(f[7])
		res.DirEnergy = parseF(f[8])
		res.DirOccupancy = parseF(f[9])
		res.NCFraction = parseF(f[10])
		res.L1HitRatio = parseF(f[11])
		res.MemReads = parseU(f[12])
		res.MemWrites = parseU(f[13])
		res.TasksRun = parseU(f[14])
		if err != nil {
			return nil, fmt.Errorf("report: line %d: %v", line, err)
		}
		set.Add(res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return set, nil
}

// DiffEntry is one metric change between two sweeps, or a run that only
// one of them holds.
type DiffEntry struct {
	Key    Key
	Metric string
	Old    float64
	New    float64
	// Only names the sweep, "old" or "new", that holds Key's run when the
	// other lacks it; Metric, Old and New are then unset.
	Only string
}

// Rel returns the relative change (new/old - 1); ±Inf when old is zero and
// new is not.
func (d DiffEntry) Rel() float64 {
	if d.Old == 0 {
		if d.New == 0 {
			return 0
		}
		return 1e18
	}
	return d.New/d.Old - 1
}

// Diff compares two sweeps over the union of their runs, in CSV row
// order: a run missing from either side is a difference, and a run in
// both reports each metric whose change exceeds the relative tolerance.
func Diff(old, new *Set, tolerance float64) []DiffEntry {
	var out []DiffEntry
	metrics := []struct {
		name string
		get  func(sim.Result) float64
	}{
		{"cycles", func(r sim.Result) float64 { return float64(r.Cycles) }},
		{"dir_accesses", func(r sim.Result) float64 { return float64(r.DirAccesses) }},
		{"llc_hit_ratio", func(r sim.Result) float64 { return r.LLCHitRatio }},
		{"noc_byte_hops", func(r sim.Result) float64 { return float64(r.NoCByteHops) }},
		{"dir_energy", func(r sim.Result) float64 { return r.DirEnergy }},
		{"nc_fraction", func(r sim.Result) float64 { return r.NCFraction }},
	}
	keys := old.sortedKeys()
	for _, k := range new.sortedKeys() {
		if _, ok := old.m[k]; !ok {
			keys = append(keys, k)
		}
	}
	sortKeys(keys)
	for _, k := range keys {
		o, inOld := old.m[k]
		n, inNew := new.m[k]
		switch {
		case !inNew:
			out = append(out, DiffEntry{Key: k, Only: "old"})
			continue
		case !inOld:
			out = append(out, DiffEntry{Key: k, Only: "new"})
			continue
		}
		for _, m := range metrics {
			d := DiffEntry{Key: k, Metric: m.name, Old: m.get(o), New: m.get(n)}
			if math.Abs(d.Rel()) > tolerance {
				out = append(out, d)
			}
		}
	}
	return out
}

// FormatDiff renders diff entries for humans.
func FormatDiff(entries []DiffEntry) string {
	if len(entries) == 0 {
		return "no differences beyond tolerance\n"
	}
	var b strings.Builder
	for _, d := range entries {
		fmt.Fprintf(&b, "%-10s %-8v%-4s 1:%-4d ", d.Key.Workload, d.Key.System, d.Key.adrTag(), d.Key.Ratio)
		if d.Only != "" {
			fmt.Fprintf(&b, "run only in the %s sweep\n", d.Only)
			continue
		}
		fmt.Fprintf(&b, "%-14s %14.3f -> %14.3f (%+.1f%%)\n", d.Metric, d.Old, d.New, d.Rel()*100)
	}
	return b.String()
}
