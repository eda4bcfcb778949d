// Package synth generates parameterized synthetic task graphs from a seed:
// producer–consumer chains, fork/join reduction trees, stencil wavefronts,
// migratory and read-only sharing mixes, and a randomized blend — each with
// a tunable fraction of unannotated tasks that reproduces the paper's JPEG
// worst case, where RaCCD sees no dependence information and must leave
// every access coherent.
//
// Generation is purely deterministic: a workload is a (preset, parameters,
// seed) triple, every Build call reseeds its own generator, and the
// canonical spec string round-trips through Parse, so the same spec always
// produces the same task graph — and, recorded through tracefile, the same
// RTF bytes — regardless of parallelism or platform.
package synth

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"raccd/internal/rts"
)

// Prefix is the spec namespace synthetic workload names live under (the
// workloads registry routes "synth:..." names here).
const Prefix = "synth:"

// Params selects and sizes one synthetic workload.
type Params struct {
	// Preset is the graph shape: chain, forkjoin, stencil, migratory,
	// readonly or mixed.
	Preset string
	// Seed drives every random decision (mixed structure, unannotated
	// task selection). Same seed, same graph.
	Seed int64
	// Width is the parallelism degree: independent chains, leaves per
	// fork, stencil row width, tokens, readers.
	Width int
	// Depth is the sequential extent: chain length, fork/join rounds,
	// stencil rows, migration rounds.
	Depth int
	// BlocksPerTask is each task's private data chunk in cache blocks.
	BlocksPerTask int
	// SharedBlocks sizes the shared read-only table (readonly, mixed).
	SharedBlocks int
	// Unannotated is the fraction of tasks created WITHOUT dependence
	// annotations: their bodies touch the same data, but the runtime
	// cannot register anything, so under RaCCD those accesses stay
	// coherent (the JPEG worst case).
	Unannotated float64
	// ComputePerBlock adds pure-compute cycles per touched block.
	ComputePerBlock int
}

// presetDefaults maps each preset to its default parameters.
var presetDefaults = map[string]Params{
	"chain":     {Preset: "chain", Seed: 1, Width: 16, Depth: 48, BlocksPerTask: 32, ComputePerBlock: 4},
	"forkjoin":  {Preset: "forkjoin", Seed: 1, Width: 16, Depth: 12, BlocksPerTask: 16, ComputePerBlock: 4},
	"stencil":   {Preset: "stencil", Seed: 1, Width: 12, Depth: 24, BlocksPerTask: 16, ComputePerBlock: 4},
	"migratory": {Preset: "migratory", Seed: 1, Width: 16, Depth: 32, BlocksPerTask: 24, ComputePerBlock: 4},
	"readonly":  {Preset: "readonly", Seed: 1, Width: 16, Depth: 16, BlocksPerTask: 16, SharedBlocks: 512, ComputePerBlock: 4},
	"mixed":     {Preset: "mixed", Seed: 1, Width: 16, Depth: 24, BlocksPerTask: 16, SharedBlocks: 256, ComputePerBlock: 4},
}

// Canonical returns spec under the "synth:" prefix, adding it when absent —
// the one place the prefix convention lives for every spec-accepting
// surface (CLI flags, the public API, the registry).
func Canonical(spec string) string {
	if !strings.HasPrefix(spec, Prefix) {
		return Prefix + spec
	}
	return spec
}

// Presets returns the available preset names, sorted.
func Presets() []string {
	out := make([]string, 0, len(presetDefaults))
	for k := range presetDefaults {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Default returns the default parameters of a preset.
func Default(preset string) (Params, error) {
	p, ok := presetDefaults[preset]
	if !ok {
		return Params{}, fmt.Errorf("synth: unknown preset %q (have %v)", preset, Presets())
	}
	return p, nil
}

// Parse reads a spec of the form
//
//	preset[/key=value]...
//
// e.g. "chain/seed=7/width=8/unannotated=0.25". The optional "synth:"
// prefix is accepted. Keys: seed, width, depth, blocks, shared,
// unannotated, compute. Slashes, not commas, separate fields so spec
// names stay CSV-safe.
func Parse(spec string) (Params, error) {
	spec = strings.TrimPrefix(spec, Prefix)
	fields := strings.Split(spec, "/")
	p, err := Default(fields[0])
	if err != nil {
		return Params{}, err
	}
	for _, f := range fields[1:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return Params{}, fmt.Errorf("synth: spec field %q is not key=value", f)
		}
		var perr error
		atoi := func(s string) int {
			v, err := strconv.Atoi(s)
			if err != nil {
				perr = err
			}
			return v
		}
		switch key {
		case "seed":
			v, err := strconv.ParseInt(val, 10, 64)
			perr = err
			p.Seed = v
		case "width":
			p.Width = atoi(val)
		case "depth":
			p.Depth = atoi(val)
		case "blocks":
			p.BlocksPerTask = atoi(val)
		case "shared":
			p.SharedBlocks = atoi(val)
		case "unannotated":
			v, err := strconv.ParseFloat(val, 64)
			perr = err
			p.Unannotated = v
		case "compute":
			p.ComputePerBlock = atoi(val)
		default:
			return Params{}, fmt.Errorf("synth: unknown spec key %q (want seed, width, depth, blocks, shared, unannotated or compute)", key)
		}
		if perr != nil {
			return Params{}, fmt.Errorf("synth: spec field %q: %v", f, perr)
		}
	}
	return p, p.check()
}

// Name returns the canonical spec: the preset plus every field that
// differs from the preset default, in fixed key order, under the "synth:"
// prefix. Parse(p.Name()) reproduces p exactly.
func (p Params) Name() string {
	def, err := Default(p.Preset)
	if err != nil {
		def = Params{}
	}
	var b strings.Builder
	b.WriteString(Prefix)
	b.WriteString(p.Preset)
	add := func(key, val string) { fmt.Fprintf(&b, "/%s=%s", key, val) }
	if p.Seed != def.Seed {
		add("seed", strconv.FormatInt(p.Seed, 10))
	}
	if p.Width != def.Width {
		add("width", strconv.Itoa(p.Width))
	}
	if p.Depth != def.Depth {
		add("depth", strconv.Itoa(p.Depth))
	}
	if p.BlocksPerTask != def.BlocksPerTask {
		add("blocks", strconv.Itoa(p.BlocksPerTask))
	}
	if p.SharedBlocks != def.SharedBlocks {
		add("shared", strconv.Itoa(p.SharedBlocks))
	}
	if p.Unannotated != def.Unannotated {
		add("unannotated", strconv.FormatFloat(p.Unannotated, 'g', -1, 64))
	}
	if p.ComputePerBlock != def.ComputePerBlock {
		add("compute", strconv.Itoa(p.ComputePerBlock))
	}
	return b.String()
}

// Scaled shrinks (or grows) the workload's sequential extent by the
// harness problem-scale factor, mirroring how the bundled benchmarks
// scale. Scale is a run parameter, not a workload identity: the workloads
// registry builds the scaled graph but keeps the UNSCALED spec as the
// workload name, exactly as "Jacobi" names the benchmark at every scale.
func (p Params) Scaled(scale float64) Params {
	if scale == 1 || scale <= 0 {
		return p
	}
	if scale > float64(rts.MaxTasks)/float64(p.Depth) {
		// Past the task cap, where the product can overflow int: New
		// and check refuse the depth this leaves.
		p.Depth = rts.MaxTasks + 1
		return p
	}
	d := int(float64(p.Depth) * scale)
	if d < 1 {
		d = 1
	}
	p.Depth = d
	return p
}

// check validates parameter ranges.
func (p Params) check() error {
	if _, ok := presetDefaults[p.Preset]; !ok {
		return fmt.Errorf("synth: unknown preset %q (have %v)", p.Preset, Presets())
	}
	if p.Width < 1 || p.Depth < 1 || p.BlocksPerTask < 1 {
		return fmt.Errorf("synth: %s: width (%d), depth (%d) and blocks (%d) must be at least 1",
			p.Preset, p.Width, p.Depth, p.BlocksPerTask)
	}
	if p.SharedBlocks < 0 {
		return fmt.Errorf("synth: %s: shared (%d) must not be negative", p.Preset, p.SharedBlocks)
	}
	if (p.Preset == "readonly" || p.Preset == "mixed") && p.SharedBlocks < 1 {
		return fmt.Errorf("synth: %s: shared must be at least 1", p.Preset)
	}
	// Negated form so NaN (which ParseFloat accepts) is rejected too.
	if !(p.Unannotated >= 0 && p.Unannotated <= 1) {
		return fmt.Errorf("synth: %s: unannotated (%g) must be in [0, 1]", p.Preset, p.Unannotated)
	}
	if p.ComputePerBlock < 0 {
		return fmt.Errorf("synth: %s: compute (%d) must not be negative", p.Preset, p.ComputePerBlock)
	}
	// Divide instead of multiplying: the products can overflow int.
	if p.Width > rts.MaxTasks/p.Depth {
		return fmt.Errorf("synth: %s: width×depth = %d×%d tasks exceeds the %d cap", p.Preset, p.Width, p.Depth, rts.MaxTasks)
	}
	// Each task declares its own blocks and, in readonly and mixed, reads
	// the shared table.
	perTask := rts.MaxDepBlocks / (p.Width * p.Depth)
	if p.BlocksPerTask > perTask || p.SharedBlocks > perTask-p.BlocksPerTask {
		return fmt.Errorf("synth: %s: %d tasks × (%d blocks + %d shared) exceeds the %d dependence-block cap",
			p.Preset, p.Width*p.Depth, p.BlocksPerTask, p.SharedBlocks, rts.MaxDepBlocks)
	}
	return nil
}

// Workload is a buildable synthetic task graph. It has the same method set
// as sim.Workload.
type Workload struct{ p Params }

// New validates p and wraps it as a workload.
func New(p Params) (Workload, error) {
	if err := p.check(); err != nil {
		return Workload{}, err
	}
	return Workload{p: p}, nil
}

// Params returns the workload's parameters.
func (w Workload) Params() Params { return w.p }

// Name returns the canonical spec string.
func (w Workload) Name() string { return w.p.Name() }

// Build populates g. Every call reseeds its own generator from
// Params.Seed, so concurrent builds of the same workload are identical.
func (w Workload) Build(g *rts.Graph) {
	b := &builder{
		g:      g,
		p:      w.p,
		rng:    rand.New(rand.NewSource(w.p.Seed)),
		annRng: rand.New(rand.NewSource(w.p.Seed ^ 0x5DEECE66D)),
	}
	switch w.p.Preset {
	case "chain":
		b.chain()
	case "forkjoin":
		b.forkjoin()
	case "stencil":
		b.stencil()
	case "migratory":
		b.migratory()
	case "readonly":
		b.readonly()
	case "mixed":
		b.mixed()
	default:
		panic(fmt.Sprintf("synth: unvalidated preset %q", w.p.Preset))
	}
}
