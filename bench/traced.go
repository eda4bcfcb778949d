package bench

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"raccd/client"
	"raccd/internal/coherence"
	"raccd/internal/cpu"
	"raccd/internal/energy"
	"raccd/internal/mem"
	"raccd/internal/rts"
	"raccd/internal/service/exec"
	"raccd/internal/sim"
	"raccd/internal/tracefile"
	"raccd/internal/workloads"
)

// The traced run attributes a simulation's host time to its layers
// without timing inside them. Each run is executed once more from the
// public pieces sim.RunContext assembles — workloads.Get and Build,
// coherence.New, rts.NewRuntime, cpu.New — with recorders wrapping the
// rts.Machine and every core model. The recorders capture the stream of
// calls each layer received and what it returned; every layer is then
// timed alone by replaying its stream in bulk:
//
//   - coherence: the machine-call stream into a fresh Hierarchy, which
//     must return the same latencies and end with the same Stats;
//   - rts: Runtime.Run against a machine returning the captured
//     latencies (and core models returning the captured charges), which
//     must reproduce the makespan and consume every captured call;
//   - cpu: each core model's call stream into a fresh model, which must
//     return the same charges and reproduce its Stats.
//
// Timing each ~100 ns call with a clock instead would double the run
// time and skew the split.

// Machine-call kinds.
const (
	callAccess uint8 = iota
	callRegister
	callInvalidate
)

// call is one captured rts.Machine call and its result.
type call struct {
	va    mem.Addr // Access: the address; RegisterRegion: the range start
	arg   uint64   // Access: the stored value; RegisterRegion: the range size
	lat   uint32   // the returned cycles
	core  uint16
	kind  uint8
	write bool
}

// machineRecorder is the rts.Machine of the traced run: the hierarchy,
// with every call captured.
type machineRecorder struct {
	h     *coherence.Hierarchy
	calls []call
	// wide counts latencies too large for call.lat.
	wide int
}

func (r *machineRecorder) add(c call, lat uint64) uint64 {
	c.lat = uint32(lat)
	if uint64(c.lat) != lat {
		r.wide++
	}
	r.calls = append(r.calls, c)
	return lat
}

func (r *machineRecorder) Access(core int, va mem.Addr, write bool, val uint64) uint64 {
	return r.add(call{va: va, arg: val, core: uint16(core), kind: callAccess, write: write},
		r.h.Access(core, va, write, val))
}

func (r *machineRecorder) RegisterRegion(core int, rg mem.Range) uint64 {
	return r.add(call{va: rg.Start, arg: rg.Size, core: uint16(core), kind: callRegister},
		r.h.RegisterRegion(core, rg))
}

func (r *machineRecorder) InvalidateNC(core int) uint64 {
	return r.add(call{core: uint16(core), kind: callInvalidate}, r.h.InvalidateNC(core))
}

// latencyMachine is the rts.Machine of the rts replay: it returns the
// captured latencies in order and does nothing else, so the replay times
// the runtime alone. The replay checks afterwards that the makespan
// matches and that every latency was consumed.
type latencyMachine struct {
	lats []uint64
	next int
}

func (l *latencyMachine) take() uint64 {
	l.next++
	if l.next > len(l.lats) {
		return 0
	}
	return l.lats[l.next-1]
}

func (l *latencyMachine) Access(int, mem.Addr, bool, uint64) uint64 { return l.take() }
func (l *latencyMachine) RegisterRegion(int, mem.Range) uint64      { return l.take() }
func (l *latencyMachine) InvalidateNC(int) uint64                   { return l.take() }

// Core-model call kinds.
const (
	modelBegin uint8 = iota
	modelAccess
	modelDrain
)

// modelCall is one captured core-model call and its result.
type modelCall struct {
	va      mem.Addr
	lat     uint64 // Access: the memory latency passed in
	charged uint64 // the returned cycles
	issued  uint32 // prefetches the call injected
	kind    uint8
	write   bool
}

// prefetch is one captured prefetch injection and the latency the
// machine returned for it.
type prefetch struct {
	va  mem.Addr
	lat uint64
}

// modelRecorder is a core model of the traced run: the real model, with
// every call and every prefetch it injects captured.
type modelRecorder struct {
	m        cpu.Model
	calls    []modelCall
	prefetch []prefetch
}

func (r *modelRecorder) BeginTask(issue func(va mem.Addr) uint64) {
	n := len(r.prefetch)
	r.m.BeginTask(func(va mem.Addr) uint64 {
		lat := issue(va)
		r.prefetch = append(r.prefetch, prefetch{va: va, lat: lat})
		return lat
	})
	r.calls = append(r.calls, modelCall{kind: modelBegin, issued: uint32(len(r.prefetch) - n)})
}

func (r *modelRecorder) Access(va mem.Addr, write bool, lat uint64) uint64 {
	n := len(r.prefetch)
	charged := r.m.Access(va, write, lat)
	r.calls = append(r.calls, modelCall{va: va, lat: lat, charged: charged, write: write,
		kind: modelAccess, issued: uint32(len(r.prefetch) - n)})
	return charged
}

func (r *modelRecorder) DrainTask() uint64 {
	n := len(r.prefetch)
	charged := r.m.DrainTask()
	r.calls = append(r.calls, modelCall{charged: charged, kind: modelDrain, issued: uint32(len(r.prefetch) - n)})
	return charged
}

// stubModel is a core model of the rts replay: it returns the captured
// charges and re-injects the captured prefetches, so the latency machine
// sees the captured call stream.
type stubModel struct {
	charged  []uint64
	issued   []uint32 // prefetches injected by each call
	prefetch []mem.Addr
	next, pf int
	issue    func(va mem.Addr) uint64
}

func newStubModel(mr *modelRecorder) *stubModel {
	s := &stubModel{
		charged:  make([]uint64, len(mr.calls)),
		issued:   make([]uint32, len(mr.calls)),
		prefetch: make([]mem.Addr, len(mr.prefetch)),
	}
	for i, c := range mr.calls {
		s.charged[i], s.issued[i] = c.charged, c.issued
	}
	for i, p := range mr.prefetch {
		s.prefetch[i] = p.va
	}
	return s
}

func (s *stubModel) take() uint64 {
	i := s.next
	s.next++
	if i >= len(s.charged) {
		return 0
	}
	for n := s.issued[i]; n > 0 && s.pf < len(s.prefetch); n-- {
		s.issue(s.prefetch[s.pf])
		s.pf++
	}
	return s.charged[i]
}

func (s *stubModel) BeginTask(issue func(va mem.Addr) uint64) {
	s.issue = issue
	s.take()
}

func (s *stubModel) Access(mem.Addr, bool, uint64) uint64 { return s.take() }
func (s *stubModel) DrainTask() uint64                    { return s.take() }

// assembly is one simulation executed from public pieces exactly as
// sim.RunContext assembles it, with its calls captured.
type assembly struct {
	name                 string
	scale                float64
	cfg                  sim.Config // with sim.RunContext's defaults applied
	params               coherence.Params
	cpuCfg               cpu.Config
	w                    workloads.Workload
	rec                  *machineRecorder
	models               []*modelRecorder
	cycles               uint64
	hstats               coherence.Stats // at the end of the run, before draining
	final                coherence.Stats // after draining: sim.Result.HStats
	dirRecalls, byteHops uint64

	// Wall time of the traced run's runtime and validation phases.
	run, validate time.Duration
}

// newHierarchy builds a run's hierarchy the way sim.RunContext does,
// including the ADR controller and its directory-energy integration.
func newHierarchy(cfg sim.Config, params coherence.Params) *coherence.Hierarchy {
	h := coherence.New(cfg.System, params)
	if cfg.ADR {
		full := cfg.Params
		fullDirKB := energy.DirectorySizeKB(full.Cores * full.DirSetsPerBank * full.DirWays)
		llcKB := float64(params.Cores*params.LLCSetsPerBank*params.LLCWays*mem.BlockSize) / 1024
		models := energy.Default(fullDirKB, llcKB)
		h.EnableADR()
		h.EnergyPerDirAccess = func(entries int) float64 {
			return models.Dir.PerAccess(energy.DirectorySizeKB(entries))
		}
	}
	return h
}

// assemble performs the traced run of workload name at scale under cfg.
// accesses, when known, is the run's coherence.Stats.Accesses: it sizes
// the capture so that recording does not reallocate.
func assemble(name string, scale float64, cfg sim.Config, accesses uint64) (*assembly, error) {
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	if cfg.SMTWays > 1 {
		return nil, fmt.Errorf("the traced run does not model SMT")
	}
	if cfg.Params.Cores == 0 {
		cfg.Params = coherence.DefaultParams()
	}
	if cfg.DirRatio == 0 {
		cfg.DirRatio = 1
	}
	a := &assembly{name: name, scale: scale, cfg: cfg, params: cfg.Params.WithDirRatio(cfg.DirRatio)}
	compute := cfg.ComputePerAccess
	if compute == 0 {
		compute = rts.DefaultComputePerAccess
	}
	a.cpuCfg = cpu.Config{
		Model:            cfg.Core,
		ComputePerAccess: compute,
		PrefetchDegree:   cfg.PrefetchDegree,
		PrefetchDistance: cfg.PrefetchDistance,
		MissLatency:      a.params.LLCCycles,
	}

	w, err := workloads.Get(name, scale)
	if err != nil {
		return nil, err
	}
	a.w = w
	g := rts.NewGraph()
	w.Build(g)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	h := newHierarchy(cfg, a.params)

	a.rec = &machineRecorder{h: h}
	if accesses > 0 {
		// Besides the accesses, the runtime registers every dependence
		// and invalidates once per task.
		n := int(accesses) + g.NumTasks()
		for _, t := range g.Tasks() {
			n += len(t.Deps)
		}
		a.rec.calls = make([]call, 0, n)
	}
	rt := a.runtime(a.rec)
	if first, err := cpu.New(a.cpuCfg); err != nil {
		return nil, err
	} else if first != nil {
		rt.CoreModels = make([]rts.CoreModel, a.params.Cores)
		a.models = make([]*modelRecorder, a.params.Cores)
		for i := range a.models {
			m := first
			if i > 0 {
				if m, err = cpu.New(a.cpuCfg); err != nil {
					return nil, err
				}
			}
			a.models[i] = &modelRecorder{m: m}
			rt.CoreModels[i] = a.models[i]
		}
	}
	start := time.Now()
	a.cycles = rt.Run(g)
	a.run = time.Since(start)
	if a.rec.wide > 0 {
		return nil, fmt.Errorf("%d machine latencies exceed the capture's 32 bits", a.rec.wide)
	}
	a.hstats = h.Stats
	a.dirRecalls = h.Stats.DirVictimRecalls + h.Stats.ADRDropped
	a.byteHops = h.Mesh().Stats.TotalByteHops()

	start = time.Now()
	if cfg.Validate {
		if err := h.CheckInvariants(); err != nil {
			return nil, fmt.Errorf("invariants: %w", err)
		}
	}
	h.NonCoherentFraction()
	h.DrainAll()
	if cfg.Validate {
		var verr error
		rt.EachGolden(func(b mem.Block, want uint64) {
			if got := h.VirtValue(b.Addr()); verr == nil && got != want {
				verr = fmt.Errorf("block %#x final value %d, want task %d", uint64(b.Addr()), got, want)
			}
		})
		if verr != nil {
			return nil, verr
		}
	}
	a.validate = time.Since(start)
	a.final = h.Stats
	return a, nil
}

// timeSetupPhases times the phases before the runtime starts, each the
// fastest of timedRepeats: loading a trace: workload, building and
// validating the task graph (loading included for other workloads), and
// building the hierarchy.
func (a *assembly) timeSetupPhases() (decode, build, newH time.Duration, err error) {
	trace := strings.HasPrefix(a.name, workloads.TracePrefix)
	if trace {
		decode, err = fastest(func() (time.Duration, error) {
			start := time.Now()
			_, err := workloads.Get(a.name, a.scale)
			return time.Since(start), err
		})
		if err != nil {
			return 0, 0, 0, err
		}
	}
	build, err = fastest(func() (time.Duration, error) {
		start := time.Now()
		w := a.w
		if !trace {
			var err error
			if w, err = workloads.Get(a.name, a.scale); err != nil {
				return 0, err
			}
		}
		g := rts.NewGraph()
		w.Build(g)
		err := g.Validate()
		return time.Since(start), err
	})
	if err != nil {
		return 0, 0, 0, err
	}
	newH, err = fastest(func() (time.Duration, error) {
		start := time.Now()
		newHierarchy(a.cfg, a.params)
		return time.Since(start), nil
	})
	return decode, build, newH, err
}

// runtime returns a runtime over m configured as sim.RunContext
// configures the run's.
func (a *assembly) runtime(m rts.Machine) *rts.Runtime {
	rt := rts.NewRuntime(m, a.params.Cores, rts.NewScheduler(a.cfg.Scheduler))
	if a.cfg.ComputePerAccess != 0 {
		rt.ComputePerAccess = a.cfg.ComputePerAccess
	}
	rt.StrictAnnotations = a.cfg.Validate
	return rt
}

// replayCoherence times the captured machine-call stream replayed into a
// fresh hierarchy, checking that it returns the captured latencies and
// reproduces the run's Stats.
func (a *assembly) replayCoherence() (time.Duration, error) {
	h := newHierarchy(a.cfg, a.params)
	calls := a.rec.calls
	bad := 0
	start := time.Now()
	for i := range calls {
		c := &calls[i]
		var lat uint64
		switch c.kind {
		case callAccess:
			lat = h.Access(int(c.core), c.va, c.write, c.arg)
		case callRegister:
			lat = h.RegisterRegion(int(c.core), mem.Range{Start: c.va, Size: c.arg})
		case callInvalidate:
			lat = h.InvalidateNC(int(c.core))
		}
		if lat != uint64(c.lat) {
			bad++
		}
	}
	d := time.Since(start)
	if bad > 0 {
		return 0, fmt.Errorf("coherence replay: %d of %d calls returned another latency", bad, len(calls))
	}
	if h.Stats != a.hstats {
		return 0, fmt.Errorf("coherence replay: stats %+v, traced run %+v", h.Stats, a.hstats)
	}
	return d, nil
}

// replayRuntime times Runtime.Run against the captured latencies,
// checking that it reproduces the makespan and consumes every call.
func (a *assembly) replayRuntime() (time.Duration, error) {
	g := rts.NewGraph()
	a.w.Build(g)
	lm := &latencyMachine{lats: make([]uint64, len(a.rec.calls))}
	for i := range a.rec.calls {
		lm.lats[i] = uint64(a.rec.calls[i].lat)
	}
	rt := a.runtime(lm)
	var stubs []*stubModel
	if a.models != nil {
		rt.CoreModels = make([]rts.CoreModel, len(a.models))
		for i, mr := range a.models {
			stubs = append(stubs, newStubModel(mr))
			rt.CoreModels[i] = stubs[i]
		}
	}
	start := time.Now()
	cycles := rt.Run(g)
	d := time.Since(start)
	if cycles != a.cycles {
		return 0, fmt.Errorf("rts replay: makespan %d, traced run %d", cycles, a.cycles)
	}
	if lm.next != len(lm.lats) {
		return 0, fmt.Errorf("rts replay: %d machine calls, %d captured", lm.next, len(lm.lats))
	}
	for i, s := range stubs {
		if s.next != len(s.charged) || s.pf != len(s.prefetch) {
			return 0, fmt.Errorf("rts replay: core model %d diverged from its captured stream", i)
		}
	}
	return d, nil
}

// replayCPU times each core model's captured stream replayed into a
// fresh model, checking the charges and the model's Stats, and returns
// the models' summed Stats.
func (a *assembly) replayCPU() (time.Duration, cpu.Stats, error) {
	var total time.Duration
	var sum cpu.Stats
	for i, mr := range a.models {
		m, err := cpu.New(a.cpuCfg)
		if err != nil {
			return 0, cpu.Stats{}, err
		}
		pf, bad := 0, 0
		issue := func(va mem.Addr) uint64 {
			if pf >= len(mr.prefetch) || mr.prefetch[pf].va != va {
				bad++
				return 0
			}
			pf++
			return mr.prefetch[pf-1].lat
		}
		start := time.Now()
		for j := range mr.calls {
			c := &mr.calls[j]
			switch c.kind {
			case modelBegin:
				m.BeginTask(issue)
			case modelAccess:
				if m.Access(c.va, c.write, c.lat) != c.charged {
					bad++
				}
			case modelDrain:
				if m.DrainTask() != c.charged {
					bad++
				}
			}
		}
		total += time.Since(start)
		if bad > 0 || pf != len(mr.prefetch) || m.Stats() != mr.m.Stats() {
			return 0, cpu.Stats{}, fmt.Errorf("cpu replay: core %d: %d mismatched calls, stats %+v, traced run %+v",
				i, bad, m.Stats(), mr.m.Stats())
		}
		sum.Add(m.Stats())
	}
	return total, sum, nil
}

// layerSample is one traced simulation's contribution to the per-layer
// metrics.
type layerSample struct {
	runs                               int
	simWall, traced                    time.Duration
	decode, build, newH, validate      time.Duration
	coherence, runtime, cpu            time.Duration
	accesses                           uint64
	l1Hits, l1Misses, cohFills, ncFill uint64
	recalls, byteHops                  uint64
	traceBytes, traceAccesses          uint64
	cpuStats                           cpu.Stats
}

// traceOne runs req untraced through sim.RunContext, then as a traced
// run, then replays each layer; the traced run must reproduce the
// untraced run's cycles and hierarchy statistics.
func traceOne(ctx context.Context, req client.RunRequest) (layerSample, error) {
	cfg, err := exec.BuildConfig(req, "", 0)
	if err != nil {
		return layerSample{}, err
	}
	scale := exec.Scale(req)
	var s layerSample
	var want sim.Result
	s.simWall, err = fastest(func() (time.Duration, error) {
		start := time.Now()
		w, err := workloads.Get(req.Workload, scale)
		if err != nil {
			return 0, err
		}
		want, err = sim.RunContext(ctx, w, cfg)
		return time.Since(start), err
	})
	if err != nil {
		return layerSample{}, err
	}

	runtime.GC()
	a, err := assemble(req.Workload, scale, cfg, want.HStats.Accesses)
	if err != nil {
		return layerSample{}, fmt.Errorf("traced run of %s: %w", req.Workload, err)
	}
	if a.cycles != want.Cycles || a.final != want.HStats {
		return layerSample{}, fmt.Errorf("traced run of %s: %d cycles, stats %+v; sim.Run: %d cycles, stats %+v",
			req.Workload, a.cycles, a.final, want.Cycles, want.HStats)
	}
	if s.decode, s.build, s.newH, err = a.timeSetupPhases(); err != nil {
		return layerSample{}, err
	}
	s.validate = a.validate
	s.traced = s.decode + s.build + s.newH + a.run + a.validate

	if s.coherence, err = fastest(a.replayCoherence); err != nil {
		return layerSample{}, err
	}
	if s.runtime, err = fastest(a.replayRuntime); err != nil {
		return layerSample{}, err
	}
	if s.cpu, err = fastest(func() (d time.Duration, err error) {
		d, s.cpuStats, err = a.replayCPU()
		return d, err
	}); err != nil {
		return layerSample{}, err
	}

	hs := a.hstats
	s.runs = 1
	s.accesses = hs.Accesses
	s.l1Hits, s.l1Misses = hs.L1Hits, hs.L1Misses
	s.cohFills, s.ncFill = hs.CohFills, hs.NCFills
	s.recalls, s.byteHops = a.dirRecalls, a.byteHops
	if path, ok := strings.CutPrefix(req.Workload, workloads.TracePrefix); ok {
		st, err := os.Stat(path)
		if err != nil {
			return layerSample{}, err
		}
		tr, err := tracefile.ReadFile(path)
		if err != nil {
			return layerSample{}, err
		}
		sum := tr.Summarize(false)
		s.traceBytes, s.traceAccesses = uint64(st.Size()), sum.Loads+sum.Stores
	}
	return s, nil
}

// timedRepeats is how often fastest repeats a timing. The minimum of a
// few repetitions filters out transient host slowdowns, which on a shared
// 2-CPU machine otherwise dominate single samples.
const timedRepeats = 2

// fastest returns the shortest of timedRepeats timings by f, each
// started from a freshly collected heap.
func fastest(f func() (time.Duration, error)) (time.Duration, error) {
	var best time.Duration
	for i := 0; i < timedRepeats; i++ {
		runtime.GC()
		d, err := f()
		if err != nil {
			return 0, err
		}
		if i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

func (s *layerSample) add(o layerSample) {
	s.runs += o.runs
	s.simWall += o.simWall
	s.traced += o.traced
	s.decode += o.decode
	s.build += o.build
	s.newH += o.newH
	s.validate += o.validate
	s.coherence += o.coherence
	s.runtime += o.runtime
	s.cpu += o.cpu
	s.accesses += o.accesses
	s.l1Hits += o.l1Hits
	s.l1Misses += o.l1Misses
	s.cohFills += o.cohFills
	s.ncFill += o.ncFill
	s.recalls += o.recalls
	s.byteHops += o.byteHops
	s.traceBytes += o.traceBytes
	s.traceAccesses += o.traceAccesses
	s.cpuStats.Add(o.cpuStats)
}

// set records the simulator per-layer metrics of the summed samples.
func (s *layerSample) set(m Metrics) {
	perRun := func(d time.Duration) float64 { return ms(d) / float64(s.runs) }
	perAccess := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(s.accesses) }
	m.set("workloads.build_ms", perRun(s.build))
	m.set("tracefile.decode_ms", perRun(s.decode))
	m.set("tracefile.bytes_per_access", ratio(s.traceBytes, s.traceAccesses))
	m.set("coherence.new_ms", perRun(s.newH))
	m.set("coherence.ns_per_access", perAccess(s.coherence))
	m.set("coherence.l1_hit_ratio", ratio(s.l1Hits, s.l1Hits+s.l1Misses))
	m.set("coherence.coh_fill_frac", ratio(s.cohFills, s.cohFills+s.ncFill))
	m.set("rts.ns_per_access", perAccess(s.runtime))
	m.set("cpu.ns_per_access", perAccess(s.cpu))
	m.set("cpu.prefetch_useful_frac", ratio(s.cpuStats.PrefetchUseful, s.cpuStats.PrefetchIssued))
	m.set("directory.recalls_per_kaccess", 1000*ratio(s.recalls, s.accesses))
	m.set("noc.byte_hops_per_access", ratio(s.byteHops, s.accesses))
	m.set("sim.validate_ms", perRun(s.validate))
	layers := s.decode + s.build + s.newH + s.coherence + s.runtime + s.cpu + s.validate
	m.set("trace.coverage", float64(layers)/float64(s.simWall))
	m.set("trace.capture_overhead", float64(s.traced)/float64(s.simWall)-1)
}

// simLayers traces reqs in order until budget is spent (at least one),
// recording each traced simulation as an operation.
func simLayers(ctx context.Context, reqs []client.RunRequest, budget time.Duration, rec *recorder, m Metrics) error {
	var sum layerSample
	var firstErr error
	start := time.Now()
	for i, req := range reqs {
		if i > 0 && time.Since(start) > budget {
			break
		}
		s, err := traceOne(ctx, req)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		rec.op(s.simWall, 1, err)
		if err == nil {
			sum.add(s)
		} else if firstErr == nil {
			firstErr = err
		}
	}
	if sum.runs == 0 || sum.accesses == 0 {
		return fmt.Errorf("no run traced: %v", firstErr)
	}
	sum.set(m)
	return nil
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
