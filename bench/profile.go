package bench

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
)

// profile is the profiled run: the operations w admits, in probed
// segments, under the CPU profiler, whose flat samples the toolchain's
// pprof buckets by package into the <pkg>.cpu_share metrics. The go.*
// metrics come from the Go runtime's counters across the same run.
func profile(ctx context.Context, inst instance, w *window, dir string, rec *recorder, probe *hostProbe, m Metrics) error {
	path := filepath.Join(dir, "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	ops0 := rec.count()
	before, err := readGoCounters()
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	_, err = runSegments(ctx, inst, w, rec, probe)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	after, err := readGoCounters()
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := inst.verify(ctx, rec); err != nil {
		return err
	}
	ops := float64(rec.count() - ops0)
	m.set("go.allocs_per_op", (after.allocs-before.allocs)/ops)
	m.set("go.bytes_per_op", (after.bytes-before.bytes)/ops)
	m.set("go.gc_cpu_frac", (after.gcCPU-before.gcCPU)/(after.busyCPU-before.busyCPU))

	shares, err := cpuShares(ctx, path)
	if err != nil {
		return err
	}
	for _, p := range profiledPkgs {
		m.set(p.bucket+".cpu_share", shares[p.bucket])
	}
	return nil
}

// cpuShares runs `go tool pprof -top` on a CPU profile and sums the flat
// sample share of every function by profiledPkgs bucket.
func cpuShares(ctx context.Context, path string) (map[string]float64, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		return nil, fmt.Errorf("the go toolchain is needed to read the profile: %w", err)
	}
	var out, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, goBin, "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", path)
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	return parsePprofTop(out.String())
}

// parsePprofTop buckets the rows of `pprof -top` output
//
//	flat  flat%   sum%        cum   cum%
//	1.20s 24.00% 24.00%      1.50s 30.00%  raccd/internal/cache.(*Cache).Lookup
//
// by the package of each function. Samples in this package — the host
// probe — are not the program's, so shares are of the other samples.
func parsePprofTop(text string) (map[string]float64, error) {
	shares := map[string]float64{}
	own := 0.0
	rows := false
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !rows {
			rows = len(f) == 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", sc.Text(), err)
		}
		pkg := funcPackage(f[5])
		if pkg == benchPkg {
			own += pct / 100
			continue
		}
		for _, p := range profiledPkgs {
			for _, prefix := range p.prefixes {
				if pkg == prefix || strings.HasPrefix(pkg, prefix+"/") {
					shares[p.bucket] += pct / 100
				}
			}
		}
	}
	if !rows {
		return nil, fmt.Errorf("pprof printed no sample table:\n%s", text)
	}
	if own < 1 {
		for b := range shares {
			shares[b] /= 1 - own
		}
	}
	return shares, nil
}

// benchPkg is this package's import path, as profiles name it.
const benchPkg = "raccd/bench"

// funcPackage returns the import path of a symbol such as
// "raccd/internal/cache.(*Cache).Lookup" or "runtime.mallocgc".
func funcPackage(sym string) string {
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i] // type arguments may contain slashes and dots
	}
	slash := strings.LastIndexByte(sym, '/')
	if dot := strings.IndexByte(sym[slash+1:], '.'); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}
