package rts

import (
	"fmt"

	"raccd/internal/mem"
)

// Machine is the hardware the runtime drives. coherence.Hierarchy implements
// it; tests substitute lightweight fakes.
type Machine interface {
	// Access simulates one block-granular memory reference and returns its
	// latency in cycles.
	Access(core int, va mem.Addr, write bool, val uint64) uint64
	// RegisterRegion executes raccd_register for one dependence range.
	RegisterRegion(core int, r mem.Range) uint64
	// InvalidateNC executes raccd_invalidate on the core.
	InvalidateNC(core int) uint64
}

// CoreModel is the core-timing seam: it decides how many cycles the
// issuing core spends on each access, given the memory latency the
// machine returned for it. internal/cpu provides the implementations
// (this package deliberately declares the interface itself so the
// dependency points cpu → rts-compatible, not rts → cpu).
//
// The runtime brackets every task: BeginTask before the body (issue
// injects prefetch reads into the machine on the task's core), one
// Access per body reference, DrainTask after the body and before the
// blocking invalidate. A nil CoreModel means the classic fixed-cost
// core: every access charges lat + ComputePerAccess, which is both the
// seed behaviour and the fast path.
//
// Models are only ever called from the goroutine running Runtime.Run, in
// dispatch order, so implementations need no locking.
type CoreModel interface {
	BeginTask(issue func(va mem.Addr) uint64)
	Access(va mem.Addr, write bool, lat uint64) uint64
	DrainTask() uint64
}

// Ctx is the execution context a task body uses to touch memory. Accesses
// are block-granular: Load/Store touch the cache block containing the
// address; LoadRange/StoreRange sweep every block of a range.
type Ctx struct {
	Core int
	Task *Task

	machine Machine
	cycles  uint64 // accumulated latency of this task's execution phase
	// computePerAccess is added to every access, modelling the arithmetic
	// done on the block's elements (intra-block locality folded in).
	computePerAccess uint64
	// model, when non-nil, replaces the fixed lat+computePerAccess charge
	// with the core model's accounting (see CoreModel).
	model        CoreModel
	strict       bool
	lastWriteDep int // memoized Deps index that covered the last Store

	golden *mem.BlockStore // shared across the run; final writers

	// cancel, when non-nil, is polled every cancelPollInterval accesses so
	// a cancelled run stops promptly even inside one long task body (the
	// dispatch-time poll alone would let a single task run to completion).
	// A non-nil error unwinds the run via a runCancelled panic that
	// Runtime.Run recovers.
	cancel    func() error
	sincePoll int
}

// cancelPollInterval is how many Ctx accesses may pass between Cancel
// polls inside a task body: small enough that cancellation lands within
// microseconds of wall time, large enough that the poll never shows up in
// a profile.
const cancelPollInterval = 1024

// runCancelled carries a Cancel error out of a task body; Runtime.Run
// recovers it and abandons the run.
type runCancelled struct{ err error }

func (c *Ctx) pollCancel() {
	if c.sincePoll++; c.sincePoll >= cancelPollInterval {
		c.sincePoll = 0
		if err := c.cancel(); err != nil {
			panic(runCancelled{err})
		}
	}
}

// NewCtx returns an execution context for t bound to machine m on the given
// core, with no per-access compute cost and no golden tracking. It is the
// record/replay hook: a trace recorder runs task bodies against a capturing
// Machine outside the runtime's task life cycle (no scheduling, register,
// stack or invalidate traffic), observing exactly the accesses the body
// issues.
func NewCtx(core int, t *Task, m Machine) *Ctx {
	return &Ctx{Core: core, Task: t, machine: m}
}

// Cycles returns the latency accumulated by the context so far: Access
// returns, per-access compute and explicit Compute calls. On a context from
// NewCtx (zero-latency machine, no per-access compute) this is exactly the
// task's pure-Compute total, which is how recorders capture it.
func (c *Ctx) Cycles() uint64 { return c.cycles }

// Load reads the block containing va.
func (c *Ctx) Load(va mem.Addr) {
	if c.cancel != nil {
		c.pollCancel()
	}
	lat := c.machine.Access(c.Core, va, false, 0)
	if c.model != nil {
		c.cycles += c.model.Access(va, false, lat)
	} else {
		c.cycles += lat + c.computePerAccess
	}
}

// Store writes the block containing va; the stored value is the task ID so
// final memory can be validated against the TDG's golden writers.
func (c *Ctx) Store(va mem.Addr) {
	if c.cancel != nil {
		c.pollCancel()
	}
	if c.strict && len(c.Task.Deps) > 0 {
		// Stores stream through a range, so the dep that covered the
		// previous store almost always covers this one too.
		d := &c.Task.Deps[c.lastWriteDep]
		if !d.Mode.Writes() || !d.Range.Contains(va) {
			ok := false
			for i := range c.Task.Deps {
				d = &c.Task.Deps[i]
				if d.Mode.Writes() && d.Range.Contains(va) {
					c.lastWriteDep = i
					ok = true
					break
				}
			}
			if !ok {
				panic(fmt.Sprintf("rts: %v stores %#x outside its declared out/inout ranges", c.Task, uint64(va)))
			}
		}
	}
	lat := c.machine.Access(c.Core, va, true, c.Task.ID)
	if c.model != nil {
		c.cycles += c.model.Access(va, true, lat)
	} else {
		c.cycles += lat + c.computePerAccess
	}
	if c.golden != nil {
		c.golden.Store(mem.BlockOf(va), c.Task.ID)
	}
}

// LoadRange reads every block of r.
func (c *Ctx) LoadRange(r mem.Range) {
	r.Blocks(func(b mem.Block) bool {
		c.Load(b.Addr())
		return true
	})
}

// StoreRange writes every block of r.
func (c *Ctx) StoreRange(r mem.Range) {
	r.Blocks(func(b mem.Block) bool {
		c.Store(b.Addr())
		return true
	})
}

// Compute adds pure-compute cycles (no memory traffic). It polls
// cancellation on the same cadence as Load/Store: a task body that loops
// over Compute alone (a long arithmetic kernel) would otherwise keep a
// cancelled run — and a draining daemon — alive until the task finished.
func (c *Ctx) Compute(cycles uint64) {
	if c.cancel != nil {
		c.pollCancel()
	}
	c.cycles += cycles
}

// Stats aggregates runtime-level events.
type Stats struct {
	TasksRun         uint64
	ScheduleCycles   uint64
	RegisterCycles   uint64 // raccd_register total
	ExecCycles       uint64 // task bodies (memory + compute)
	InvalidateCycles uint64 // raccd_invalidate total
	WakeupCycles     uint64
	IdleCycles       uint64 // cores waiting for ready tasks
}

// Runtime executes a TDG on the simulated machine, reproducing the task
// life cycle of Fig 3: schedule → deactivate coherence (register) → execute
// → invalidate non-coherent data → wake-up.
type Runtime struct {
	Machine Machine
	Cores   int
	Sched   Scheduler

	// ScheduleCycles is the fixed cost of the scheduling phase per task.
	ScheduleCycles uint64
	// WakeupCyclesPerSucc is the wake-up phase cost per dependent task.
	WakeupCyclesPerSucc uint64
	// ComputePerAccess is added to every block access inside task bodies.
	ComputePerAccess uint64
	// StrictAnnotations makes Store panic when a task with dependences
	// writes outside its declared out/inout ranges — an annotation bug
	// that would be a data race in a real task-parallel program. Enabled
	// by workload tests.
	StrictAnnotations bool

	// Cancel, when non-nil, is polled before every task dispatch and
	// every cancelPollInterval accesses inside task bodies; a non-nil
	// return abandons the run immediately (context.Context.Err threaded
	// in by sim.RunContext). The partial makespan an abandoned run
	// returns is meaningless; callers must discard it.
	Cancel func() error

	// CoreModels, when non-nil, holds one core-timing model per logical
	// processor (len == Cores); task bodies on processor p charge their
	// accesses through CoreModels[p] instead of the fixed
	// lat + ComputePerAccess. Entries may be nil (that processor keeps
	// the classic core). Runtime traffic — scheduling, register, stack,
	// invalidate, wake-up — is charged raw in either case: it is the
	// runtime system's own memory activity, not the task body's
	// instruction stream.
	CoreModels []CoreModel

	// The runtime system's own memory traffic. Task descriptors and the
	// ready queue live in shared memory and are touched coherently by
	// every scheduling and wake-up phase; task bodies also touch their
	// core's stack. Neither is covered by dependence annotations, so this
	// is the residual coherent traffic that keeps RaCCD's directory from
	// going fully quiet (the paper's Fig 7a shows RaCCD still incurs a
	// fraction of the baseline's directory accesses).
	MetaBase           mem.Addr
	StackBase          mem.Addr
	StackBlocksPerTask int

	Stats Stats

	// golden tracks the final writer of every stored block in a paged
	// block store: Ctx.Store updates it on every simulated store, so it
	// must not be a map (see internal/mem.BlockStore).
	golden *mem.BlockStore
}

// DefaultComputePerAccess is the per-access compute cost NewRuntime
// installs; sim.Config.Fingerprint normalizes an unset override to it so
// "default" and "explicitly 8" name the same machine.
const DefaultComputePerAccess = 8

// NewRuntime returns a runtime with the default overhead costs.
func NewRuntime(m Machine, cores int, sched Scheduler) *Runtime {
	if sched == nil {
		sched = NewFIFO()
	}
	return &Runtime{
		Machine:             m,
		Cores:               cores,
		Sched:               sched,
		ScheduleCycles:      100,
		WakeupCyclesPerSucc: 20,
		ComputePerAccess:    DefaultComputePerAccess,
		MetaBase:            0x0800_0000,
		StackBase:           0x0C00_0000,
		StackBlocksPerTask:  24,
		golden:              mem.NewBlockStore(),
	}
}

// descAddr returns the shared task-descriptor block of task t.
func (r *Runtime) descAddr(t *Task) mem.Addr {
	return r.MetaBase + mem.Addr(t.ID)*mem.BlockSize
}

// queueAddr returns the shared ready-queue head block.
func (r *Runtime) queueAddr() mem.Addr { return r.MetaBase }

// Golden returns the final writer per block as actually issued by the
// executed kernels (block-granular virtual addresses). The map is
// materialized from the runtime's block store on each call; it is meant for
// end-of-run validation, not for per-access queries. Prefer EachGolden
// when a full map is not needed.
func (r *Runtime) Golden() map[mem.Block]uint64 {
	out := make(map[mem.Block]uint64)
	r.golden.Each(func(b mem.Block, v uint64) { out[b] = v })
	return out
}

// EachGolden visits every written block and its final writer in ascending
// block order, without building a map.
func (r *Runtime) EachGolden(fn func(b mem.Block, id uint64)) {
	r.golden.Each(fn)
}

// Run executes the graph to completion and returns the makespan: the largest
// core clock when the last task finishes. It panics on a deadlocked graph
// (impossible for graphs built by Graph.Add, which are acyclic).
//
// One goroutine does everything: pick the core with the smallest clock,
// pop a ready task, run its life cycle via execute with the body in
// place. Every machine access therefore happens in an order fully
// determined by the graph, the scheduler and the machine's latencies.
func (r *Runtime) Run(g *Graph) (makespan uint64) {
	defer func() {
		if p := recover(); p != nil {
			if _, ok := p.(runCancelled); ok {
				// Same contract as the dispatch-time cancel path: the
				// partial makespan is meaningless, return 0.
				makespan = 0
				return
			}
			panic(p)
		}
	}()
	clocks := make([]uint64, r.Cores)
	for _, t := range g.Tasks() {
		t.waiting = t.npreds
		t.done = false
		t.ready = false
		t.ReadyTime = 0
		t.EndTime = 0
		t.affinity = -1
	}
	for _, t := range g.Roots() {
		t.ReadyTime = 0
		t.ready = true
		r.Sched.Push(t)
	}
	remaining := g.NumTasks()
	for remaining > 0 {
		if r.Cancel != nil && r.Cancel() != nil {
			return 0
		}
		// Pick the core with the smallest clock.
		c := 0
		for i := 1; i < r.Cores; i++ {
			if clocks[i] < clocks[c] {
				c = i
			}
		}
		t := r.Sched.Pop(c, clocks[c])
		if t == nil {
			// Nothing is ready at this core's time. Completions only
			// happen at dispatch, so the earliest ready time is the next
			// event, and nothing is ready before it for any core either
			// (Pop returns nil exactly when no task is ready by its
			// time): every core behind it idles up to it, in one pass.
			minReady, ok := r.Sched.MinReadyTime()
			if !ok {
				panic(fmt.Sprintf("rts: deadlock with %d tasks remaining", remaining))
			}
			if minReady <= clocks[c] {
				panic(fmt.Sprintf("rts: scheduler %s returned no task at cycle %d with one ready at %d",
					r.Sched.Name(), clocks[c], minReady))
			}
			for i, cl := range clocks {
				if cl < minReady {
					r.Stats.IdleCycles += minReady - cl
					clocks[i] = minReady
				}
			}
			continue
		}
		clocks[c] = r.execute(c, t, clocks[c])
		remaining--
	}
	for _, cl := range clocks {
		if cl > makespan {
			makespan = cl
		}
	}
	return makespan
}

// execute runs one task's life cycle on core c starting at time now and
// returns the core's clock after the wake-up phase.
func (r *Runtime) execute(c int, t *Task, now uint64) uint64 {
	r.Stats.TasksRun++
	t.CoreRun = c

	// Scheduling phase: fixed cost plus the coherent accesses to the
	// shared ready-queue head and the task's descriptor.
	now += r.ScheduleCycles
	r.Stats.ScheduleCycles += r.ScheduleCycles
	if r.MetaBase != 0 {
		s := r.Machine.Access(c, r.queueAddr(), true, 0)
		s += r.Machine.Access(c, r.descAddr(t), true, 0)
		now += s
		r.Stats.ScheduleCycles += s
	}

	// Deactivate coherence: one raccd_register per dependence (§III-B).
	for _, d := range t.Deps {
		cyc := r.Machine.RegisterRegion(c, d.Range)
		now += cyc
		r.Stats.RegisterCycles += cyc
	}

	// Task execution phase.
	ctx := &Ctx{
		Core:             c,
		Task:             t,
		machine:          r.Machine,
		computePerAccess: r.ComputePerAccess,
		strict:           r.StrictAnnotations,
		golden:           r.golden,
		cancel:           r.Cancel,
	}
	if r.CoreModels != nil {
		ctx.model = r.CoreModels[c]
	}
	if ctx.model != nil {
		// Prefetches issue as plain reads on the task's core, against the
		// real machine: they pay (and perturb) directory, sharer and NoC
		// state under whatever coherence scheme this run uses.
		ctx.model.BeginTask(func(va mem.Addr) uint64 {
			return r.Machine.Access(c, va, false, 0)
		})
	}
	if t.Body != nil {
		t.Body(ctx)
	}
	if ctx.model != nil {
		// Task boundaries synchronize: the invalidate below is a blocking
		// instruction, so outstanding accesses must complete first.
		ctx.cycles += ctx.model.DrainTask()
	}
	// Per-task stack traffic: spills, locals and call frames on the
	// executing core's stack. Never annotated: coherent under RaCCD and
	// FullCoh, private pages under PT.
	if r.StackBase != 0 {
		stack := r.StackBase + mem.Addr(c)<<16 // 64 KiB per core
		for i := 0; i < r.StackBlocksPerTask; i++ {
			va := stack + mem.Addr(i%32)*mem.BlockSize
			ctx.cycles += r.Machine.Access(c, va, i%4 == 0, 0)
		}
	}
	now += ctx.cycles
	r.Stats.ExecCycles += ctx.cycles

	// Invalidate non-coherent data (blocking instruction, §III-C4).
	inv := r.Machine.InvalidateNC(c)
	now += inv
	r.Stats.InvalidateCycles += inv

	// Wake-up phase: notify dependents.
	t.done = true
	t.EndTime = now
	for _, s := range t.succs {
		now += r.WakeupCyclesPerSucc
		r.Stats.WakeupCycles += r.WakeupCyclesPerSucc
		if r.MetaBase != 0 {
			w := r.Machine.Access(c, r.descAddr(s), true, 0)
			now += w
			r.Stats.WakeupCycles += w
		}
		s.waiting--
		// A task is ready when its LAST predecessor completes; readiness
		// time is the max over predecessors' completion times, not the
		// order in which the dispatch loop processes them.
		if now > s.ReadyTime {
			s.ReadyTime = now
		}
		if s.waiting == 0 {
			s.ready = true
			if s.affinity < 0 {
				s.affinity = c
			}
			r.Sched.Push(s)
		}
	}
	return now
}
