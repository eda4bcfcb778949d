// Package workloads re-implements the paper's nine task-parallel benchmarks
// (Table II) plus the Cholesky factorisation of Fig 1 as task graphs over a
// simulated virtual address space.
//
// Every workload reproduces the dependence structure and access pattern that
// drives the paper's results — streaming reads (MD5), stencil wavefronts
// (Gauss), phase-migrating data (CG, Kmeans), shared read-only data (KNN),
// and missing annotations (JPEG, the RaCCD worst case). Problem sizes are
// Table II divided by 16, matching the ÷16-scaled LLC and directory of the
// simulated machine (see the scaling rule in docs/MACHINE.md), so every
// dataset:cache ratio of the paper is preserved.
//
// Kernels issue block-granular accesses; per-element arithmetic is folded
// into the runtime's compute-per-access cost.
package workloads

import (
	"crypto/sha256"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"raccd/internal/mem"
	"raccd/internal/rts"
	"raccd/internal/tracefile"
	"raccd/internal/workloads/synth"
)

// Workload is a named task-graph builder (satisfies sim.Workload).
type Workload struct {
	name  string
	build func(g *rts.Graph)
}

// Name returns the benchmark name as used in the paper's figures.
func (w Workload) Name() string { return w.name }

// Build populates the task graph.
func (w Workload) Build(g *rts.Graph) { w.build(g) }

// New wraps a builder function as a Workload.
func New(name string, build func(g *rts.Graph)) Workload {
	return Workload{name: name, build: build}
}

// Arena hands out page-aligned virtual address ranges for workload arrays.
type Arena struct{ next mem.Addr }

// NewArena returns an arena starting at a fixed virtual base.
func NewArena() *Arena { return &Arena{next: 0x1000_0000} }

// Alloc reserves bytes of virtual address space, padded to a whole page.
func (a *Arena) Alloc(bytes uint64) mem.Range {
	r := mem.Range{Start: a.next, Size: bytes}
	a.next = mem.AlignUp(a.next+mem.Addr(bytes), mem.PageSize)
	return r
}

// Chunks splits r into n contiguous block-aligned pieces covering all of r.
// Block alignment keeps independent tasks from sharing a cache block, which
// would create spurious dependence edges at the TDG's block granularity.
func Chunks(r mem.Range, n int) []mem.Range {
	if n <= 0 {
		panic("workloads: non-positive chunk count")
	}
	blocks := r.NumBlocks()
	if uint64(n) > blocks {
		n = int(blocks)
	}
	out := make([]mem.Range, 0, n)
	start := r.Start
	per := blocks / uint64(n)
	extra := blocks % uint64(n)
	for i := 0; i < n; i++ {
		nb := per
		if uint64(i) < extra {
			nb++
		}
		size := nb * mem.BlockSize
		end := start + mem.Addr(size)
		if end > r.End() {
			end = r.End()
		}
		out = append(out, mem.Range{Start: start, Size: uint64(end - start)})
		start = end
	}
	out[n-1] = mem.Range{Start: out[n-1].Start, Size: uint64(r.End() - out[n-1].Start)}
	return out
}

// checkScale rejects a scale no problem size can be derived from: Go
// leaves the integer conversion in scaled implementation-defined for
// negative and non-finite values. Scale 0 is valid and selects every
// workload's minimum size.
func checkScale(scale float64) error {
	if scale < 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return fmt.Errorf("workloads: scale %g must be finite and non-negative", scale)
	}
	return nil
}

// scaled multiplies a default size by the scale factor, clamping to min.
func scaled(def uint64, scale float64, min uint64) uint64 {
	v := uint64(float64(def) * scale)
	if v < min {
		return min
	}
	return v
}

// benchmark is a registered benchmark: its constructor, taking a scale
// factor (1.0 = the ÷16 Table II default; tests use smaller factors), and
// the largest scale it builds at. Up to maxScale its graph stays within
// rts.MaxTasks tasks and rts.MaxDepBlocks dependence blocks
// (TestMaxScaleWithinCaps builds each at its cap). Every benchmark but
// Cholesky grows linearly with the scale; Cholesky's tasks grow with its
// cube.
type benchmark struct {
	build    func(scale float64) Workload
	maxScale float64
}

// registry maps each benchmark name to its constructor and scale cap.
var registry = map[string]benchmark{
	"CG":       {NewCG, 64},
	"Gauss":    {NewGauss, 64},
	"Histo":    {NewHisto, 64},
	"Jacobi":   {NewJacobi, 64},
	"JPEG":     {NewJPEG, 64},
	"Kmeans":   {NewKmeans, 64},
	"KNN":      {NewKNN, 64},
	"MD5":      {NewMD5, 64},
	"RedBlack": {NewRedBlack, 64},
	"Cholesky": {NewCholesky, 4},
}

// lookup returns the benchmark registered as name, checking that it builds
// at scale.
func lookup(name string, scale float64) (benchmark, error) {
	b, ok := registry[name]
	if !ok {
		return benchmark{}, fmt.Errorf("workloads: unknown benchmark %q (have %v)", name, Names())
	}
	if scale > b.maxScale {
		return benchmark{}, fmt.Errorf("workloads: %s at scale %g: the largest scale it builds at is %g", name, scale, b.maxScale)
	}
	return b, nil
}

// PaperSet is the nine benchmarks of the paper's evaluation, in the order
// of its figures.
func PaperSet() []string {
	return []string{"CG", "Gauss", "Histo", "Jacobi", "JPEG", "Kmeans", "KNN", "MD5", "RedBlack"}
}

// Names returns every registered workload name, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TracePrefix routes "trace:<path>" workload names to RTF trace files.
const TracePrefix = "trace:"

// Get constructs a workload by name. Three namespaces are understood:
//
//   - a registered benchmark name ("Jacobi", "MD5", ...), built at the
//     given problem scale;
//   - "synth:<preset>[/key=val]..." — a seeded synthetic task graph (see
//     package synth); scale shrinks or grows its depth;
//   - "trace:<path>" — an RTF trace file, replayed exactly as recorded
//     (scale does not apply: the trace's problem size is baked in). The
//     workload keeps the name stored in the trace header, so replayed
//     benchmarks land on the same figure rows as native ones.
//
// This is the replay hook that lets synthetic suites and trace files join
// evaluation matrices next to the bundled benchmarks.
func Get(name string, scale float64) (Workload, error) {
	w, _, err := open(name, scale)
	return w, err
}

// Identity returns the canonical identity of the task graph that
// Get(name, scale) would build — the workload half of a resultstore cache
// key (the configuration half is sim.Config.Fingerprint). Two (name,
// scale) pairs share an identity exactly when they build identical
// graphs:
//
//   - bundled benchmarks render as "bench:<name>/scale=<g>" — the scale
//     changes the problem size, so it is part of the identity;
//   - synth: specs render as the canonical spec of the *scaled*
//     parameters, so "synth:chain" at scale 0.5 and "synth:chain/depth=24"
//     at scale 1 are recognized as the same graph;
//   - trace: files render as "trace:<name>/sha=<hex>" where the hash is
//     over the file's bytes — two traces share an identity exactly when
//     their content is identical, so moving or renaming a trace file
//     keeps its identity (and its cached results) while editing or
//     re-recording it with different contents invalidates them. (The
//     header's params fingerprint alone is not enough: it hashes the
//     recording parameters, not the captured access streams.) The file
//     is parsed as Get parses it, so a file Get rejects has no identity.
func Identity(name string, scale float64) (string, error) {
	id, _, err := resolve(name, scale)
	return id, err
}

// Load is Get that also returns the workload's Identity, both from one
// read of a trace's file, so the identity is that of the graph the
// workload builds even when the file is rewritten in between.
func Load(name string, scale float64) (Workload, string, error) {
	w, identify, err := open(name, scale)
	if err != nil {
		return Workload{}, "", err
	}
	return w, identify(), nil
}

// resolve returns Identity(name, scale) and the name of the workload
// Get(name, scale) builds, the workload column of its result rows: a
// benchmark's name, a synth: spec's canonical spec or a trace's name.
func resolve(name string, scale float64) (id, row string, err error) {
	w, identify, err := open(name, scale)
	if err != nil {
		return "", "", err
	}
	return identify(), w.Name(), nil
}

// open resolves name at scale in the namespaces Get lists, reading a
// trace's file once, and returns the workload Get builds with a function
// that computes its Identity from what that read returned. Only a
// trace's identity costs more than formatting (it hashes the file's
// bytes), which is why Get leaves it uncomputed.
func open(name string, scale float64) (Workload, func() string, error) {
	if err := checkScale(scale); err != nil {
		return Workload{}, nil, err
	}
	if strings.HasPrefix(name, synth.Prefix) {
		p, err := synth.Parse(name)
		if err != nil {
			return Workload{}, nil, err
		}
		// The scaled graph is the one built; it must pass the caps too.
		sw, err := synth.New(p.Scaled(scale))
		if err != nil {
			return Workload{}, nil, err
		}
		return New(p.Name(), sw.Build), sw.Name, nil
	}
	if path, ok := strings.CutPrefix(name, TracePrefix); ok {
		t, err := tracefile.ReadFile(path)
		if err != nil {
			return Workload{}, nil, fmt.Errorf("workloads: %w", err)
		}
		return New(t.Name(), t.Build), func() string {
			h := sha256.New()
			_ = tracefile.Encode(h, t) // a hash.Hash never fails a Write
			return fmt.Sprintf("trace:%s/sha=%x", t.Name(), h.Sum(nil)[:12])
		}, nil
	}
	b, err := lookup(name, scale)
	if err != nil {
		return Workload{}, nil, err
	}
	return b.build(scale), func() string {
		return fmt.Sprintf("bench:%s/scale=%s", name, strconv.FormatFloat(scale, 'g', -1, 64))
	}, nil
}

// Identities memoizes resolve by workload name and scale, so the runs
// of one request or sweep that share a trace read, parse and hash it
// once between them. The zero value is empty and ready to use; it is
// safe for concurrent use. A failed lookup is not remembered.
type Identities struct {
	mu sync.Mutex
	m  map[identityKey]resolved
}

type identityKey struct {
	name  string
	scale float64
}

type resolved struct{ id, row string }

// Resolve returns Identity(name, scale) and the workload's row name,
// resolved at most once per (name, scale) while it succeeds.
func (ids *Identities) Resolve(name string, scale float64) (id, row string, err error) {
	ids.mu.Lock()
	defer ids.mu.Unlock()
	k := identityKey{name, scale}
	if r, ok := ids.m[k]; ok {
		return r.id, r.row, nil
	}
	id, row, err = resolve(name, scale)
	if err != nil {
		return "", "", err
	}
	if ids.m == nil {
		ids.m = make(map[identityKey]resolved)
	}
	ids.m[k] = resolved{id, row}
	return id, row, nil
}

// MustGet is Get that panics on unknown names.
func MustGet(name string, scale float64) Workload {
	w, err := Get(name, scale)
	if err != nil {
		panic(err)
	}
	return w
}
