package rts

import (
	"testing"
	"testing/quick"

	"raccd/internal/mem"
)

// fake is a Machine that charges fixed latencies and records calls.
type fake struct {
	accessLat   uint64
	accesses    []string
	registered  []mem.Range
	invalidates int
}

func (f *fake) Access(core int, va mem.Addr, write bool, val uint64) uint64 {
	return f.accessLat
}
func (f *fake) RegisterRegion(core int, r mem.Range) uint64 {
	f.registered = append(f.registered, r)
	return 5
}
func (f *fake) InvalidateNC(core int) uint64 {
	f.invalidates++
	return 7
}

func rng(start, size uint64) mem.Range { return mem.Range{Start: mem.Addr(start), Size: size} }

func TestGraphRAW(t *testing.T) {
	g := NewGraph()
	w := g.Add("w", []Dep{{rng(0, 64), Out}}, nil)
	r := g.Add("r", []Dep{{rng(0, 64), In}}, nil)
	if r.NumPreds() != 1 {
		t.Fatalf("reader preds = %d, want 1 (RAW)", r.NumPreds())
	}
	if len(w.Succs()) != 1 || w.Succs()[0] != r {
		t.Fatal("writer successor not the reader")
	}
}

func TestGraphWAW(t *testing.T) {
	g := NewGraph()
	g.Add("w1", []Dep{{rng(0, 64), Out}}, nil)
	w2 := g.Add("w2", []Dep{{rng(0, 64), Out}}, nil)
	if w2.NumPreds() != 1 {
		t.Fatalf("second writer preds = %d, want 1 (WAW)", w2.NumPreds())
	}
}

func TestGraphWAR(t *testing.T) {
	g := NewGraph()
	g.Add("w", []Dep{{rng(0, 64), Out}}, nil)
	g.Add("r1", []Dep{{rng(0, 64), In}}, nil)
	g.Add("r2", []Dep{{rng(0, 64), In}}, nil)
	w2 := g.Add("w2", []Dep{{rng(0, 64), Out}}, nil)
	// w2 depends on the two readers (WAR) and the original writer (WAW),
	// deduplicated: 3 distinct predecessors.
	if w2.NumPreds() != 3 {
		t.Fatalf("overwriter preds = %d, want 3", w2.NumPreds())
	}
}

func TestGraphIndependentTasksNoEdges(t *testing.T) {
	g := NewGraph()
	g.Add("a", []Dep{{rng(0, 64), Out}}, nil)
	g.Add("b", []Dep{{rng(4096, 64), Out}}, nil)
	if g.NumEdges() != 0 {
		t.Fatalf("disjoint ranges created %d edges", g.NumEdges())
	}
	if len(g.Roots()) != 2 {
		t.Fatal("both independent tasks should be roots")
	}
}

func TestGraphInOutSelfNoCycle(t *testing.T) {
	g := NewGraph()
	a := g.Add("a", []Dep{{rng(0, 64), InOut}}, nil)
	b := g.Add("b", []Dep{{rng(0, 64), InOut}}, nil)
	if a.NumPreds() != 0 || b.NumPreds() != 1 {
		t.Fatalf("inout chain preds: a=%d b=%d, want 0,1", a.NumPreds(), b.NumPreds())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGraphEdgeDeduplication(t *testing.T) {
	g := NewGraph()
	// Writer covers 4 blocks; reader reads all 4 — must be ONE edge.
	g.Add("w", []Dep{{rng(0, 256), Out}}, nil)
	r := g.Add("r", []Dep{{rng(0, 256), In}}, nil)
	if r.NumPreds() != 1 {
		t.Fatalf("preds = %d, want 1 (dedup)", r.NumPreds())
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumEdges())
	}
}

func TestGraphBlockGranularity(t *testing.T) {
	g := NewGraph()
	// Two writers to different halves of the SAME block conflict at block
	// granularity (the granularity the hardware and this runtime track).
	g.Add("w1", []Dep{{rng(0, 32), Out}}, nil)
	w2 := g.Add("w2", []Dep{{rng(32, 32), Out}}, nil)
	if w2.NumPreds() != 1 {
		t.Fatalf("same-block writers not serialised: preds = %d", w2.NumPreds())
	}
}

// TestAddAllocatesPerRangeNotPerBlock pins Graph.Add's allocations to the
// ranges and pages it is given, not to the blocks (64 per page) they cover.
func TestAddAllocatesPerRangeNotPerBlock(t *testing.T) {
	const pages = 4
	const size = pages * mem.PageSize
	t.Run("fresh pages", func(t *testing.T) {
		// Each round writes, twice reads and then updates a range on
		// pages no task has touched: 4 ranges, 4 tasks.
		const rounds = 20
		deps := make([][]Dep, 0, 4*(rounds+1))
		for i := uint64(0); i <= rounds; i++ {
			r := rng(0x1000_0000+i*size, size)
			deps = append(deps, []Dep{{r, Out}}, []Dep{{r, In}}, []Dep{{r, In}}, []Dep{{r, InOut}})
		}
		g := NewGraph()
		allocs := testing.AllocsPerRun(rounds, func() {
			for _, d := range deps[:4] {
				g.Add("t", d, nil)
			}
			deps = deps[4:]
		})
		// One chunk per page, plus per range its task, its reader-list
		// cell and the growth of its predecessors' successor lists.
		if limit := float64(pages + 4*4); allocs > limit {
			t.Errorf("%.1f allocations per round over %d fresh pages, want <= %.0f", allocs, pages, limit)
		}
	})
	t.Run("touched pages", func(t *testing.T) {
		// Readers pile up on a range whose chunks exist: each is one
		// task and one reader-list cell shared by all 256 blocks.
		r := []Dep{{rng(0x1000_0000, size), In}}
		g := NewGraph()
		g.Add("w", []Dep{{rng(0x1000_0000, size), Out}}, nil)
		allocs := testing.AllocsPerRun(100, func() { g.Add("r", r, nil) })
		if allocs > 4 {
			t.Errorf("%.1f allocations per reader of %d touched pages, want <= 4", allocs, pages)
		}
	})
}

func TestGoldenWriters(t *testing.T) {
	g := NewGraph()
	g.Add("w1", []Dep{{rng(0, 128), Out}}, nil) // blocks 0,1
	g.Add("w2", []Dep{{rng(64, 64), Out}}, nil) // block 1
	g.Add("r", []Dep{{rng(0, 128), In}}, nil)   // no writes
	golden := g.GoldenWriters()
	if golden[0] != 1 || golden[1] != 2 {
		t.Fatalf("golden = %v, want block0→1, block1→2", golden)
	}
	if len(golden) != 2 {
		t.Fatalf("golden has %d blocks, want 2", len(golden))
	}
}

func TestCholeskyShapedGraph(t *testing.T) {
	// The Fig 1 structure for N=3 tiles: potrf/trsm/syrk/gemm chain.
	const tile = 4096
	g := NewGraph()
	addr := func(i, j int) mem.Range { return rng(uint64(i*8+j)*tile, tile) }
	N := 3
	for j := 0; j < N; j++ {
		for k := 0; k < j; k++ {
			for i := j + 1; i < N; i++ {
				g.Add("gemm", []Dep{
					{addr(i, k), In}, {addr(j, k), In}, {addr(i, j), InOut},
				}, nil)
			}
		}
		for i := j + 1; i < N; i++ {
			g.Add("syrk", []Dep{{addr(j, i), In}, {addr(j, j), InOut}}, nil)
		}
		g.Add("potrf", []Dep{{addr(j, j), InOut}}, nil)
		for i := j + 1; i < N; i++ {
			g.Add("trsm", []Dep{{addr(j, j), In}, {addr(i, j), InOut}}, nil)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() != 10 {
		t.Fatalf("tasks = %d, want 10 for N=3", g.NumTasks())
	}
	if g.CriticalPathLen() < 5 {
		t.Fatalf("critical path = %d, want >= 5", g.CriticalPathLen())
	}
}

func TestFIFOOrder(t *testing.T) {
	s := NewFIFO()
	g := NewGraph()
	a := g.Add("a", nil, nil)
	b := g.Add("b", nil, nil)
	b.ReadyTime, a.ReadyTime = 0, 0
	s.Push(b)
	s.Push(a)
	if got := s.Pop(0, 10); got != a {
		t.Fatalf("FIFO popped %v, want creation-order first (a)", got)
	}
}

func TestFIFORespectsReadyTime(t *testing.T) {
	s := NewFIFO()
	g := NewGraph()
	a := g.Add("a", nil, nil)
	a.ReadyTime = 100
	s.Push(a)
	if got := s.Pop(0, 50); got != nil {
		t.Fatal("popped a task before its ready time")
	}
	if got := s.Pop(0, 100); got != a {
		t.Fatal("task not popped at its ready time")
	}
	if _, ok := s.MinReadyTime(); ok {
		t.Fatal("MinReadyTime on empty queue reported ok")
	}
}

func TestLIFOOrder(t *testing.T) {
	s := NewLIFO()
	g := NewGraph()
	a := g.Add("a", nil, nil)
	b := g.Add("b", nil, nil)
	s.Push(a)
	s.Push(b)
	if got := s.Pop(0, 0); got != b {
		t.Fatalf("LIFO popped %v, want most recent (b)", got)
	}
	if mt, ok := s.MinReadyTime(); !ok || mt != 0 {
		t.Fatal("MinReadyTime wrong")
	}
}

func TestLocalityPrefersAffinity(t *testing.T) {
	s := NewLocality()
	g := NewGraph()
	a := g.Add("a", nil, nil)
	b := g.Add("b", nil, nil)
	a.affinity = 1
	b.affinity = 2
	s.Push(a)
	s.Push(b)
	if got := s.Pop(2, 0); got != b {
		t.Fatalf("locality popped %v for core 2, want b", got)
	}
	if got := s.Pop(2, 0); got != a {
		t.Fatal("fallback pop failed")
	}
}

func TestNewSchedulerByName(t *testing.T) {
	for _, n := range []string{"", "fifo", "lifo", "locality"} {
		if NewScheduler(n) == nil {
			t.Fatalf("NewScheduler(%q) nil", n)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unknown policy did not panic")
			}
		}()
		NewScheduler("bogus")
	}()
}

func TestRuntimeRunsAllTasksInDepOrder(t *testing.T) {
	f := &fake{accessLat: 10}
	g := NewGraph()
	var order []uint64
	mk := func(name string, deps []Dep) *Task {
		var tk *Task
		tk = g.Add(name, deps, func(ctx *Ctx) {
			order = append(order, ctx.Task.ID)
			ctx.LoadRange(deps[0].Range)
		})
		return tk
	}
	w := mk("w", []Dep{{rng(0, 64), Out}})
	r1 := mk("r1", []Dep{{rng(0, 64), In}})
	r2 := mk("r2", []Dep{{rng(0, 64), In}})
	rt := NewRuntime(f, 4, NewFIFO())
	makespan := rt.Run(g)
	if rt.Stats.TasksRun != 3 {
		t.Fatalf("TasksRun = %d, want 3", rt.Stats.TasksRun)
	}
	if order[0] != w.ID {
		t.Fatalf("writer did not run first: %v", order)
	}
	if !(w.EndTime <= r1.ReadyTime && w.EndTime <= r2.ReadyTime) {
		t.Fatal("readers became ready before the writer ended")
	}
	if makespan == 0 {
		t.Fatal("zero makespan")
	}
}

// coreLatMachine charges each core its own fixed access latency.
type coreLatMachine []uint64

func (m coreLatMachine) Access(core int, _ mem.Addr, _ bool, _ uint64) uint64 { return m[core] }
func (coreLatMachine) RegisterRegion(int, mem.Range) uint64                   { return 0 }
func (coreLatMachine) InvalidateNC(int) uint64                                { return 0 }

// TestRunResetsAffinity runs one graph on two machines in turn under the
// locality scheduler, which reads each task's affinity. The second run
// must match a fresh graph's run on that machine: affinity is run-time
// state, reset with readiness and timing.
func TestRunResetsAffinity(t *testing.T) {
	build := func() *Graph {
		g := NewGraph()
		body := func(ctx *Ctx) {
			for _, d := range ctx.Task.Deps {
				ctx.LoadRange(d.Range)
			}
		}
		for i := uint64(0); i < 32; i++ {
			r := rng(0x1000_0000+i*mem.PageSize, 8*mem.BlockSize)
			g.Add("produce", []Dep{{r, Out}}, body)
			g.Add("consume", []Dep{{r, In}}, body)
		}
		return g
	}
	a := coreLatMachine{1, 40, 40, 40}
	b := coreLatMachine{40, 40, 40, 1}
	run := func(m Machine, g *Graph) uint64 {
		return NewRuntime(m, len(a), NewLocality()).Run(g)
	}
	reused := build()
	run(a, reused)
	got := run(b, reused)
	want := run(b, build())
	if got != want {
		t.Fatalf("second run on machine B: makespan %d, fresh graph on B: %d", got, want)
	}
}

func TestRuntimeParallelSpeedup(t *testing.T) {
	// 16 independent equal tasks on 1 core vs 4 cores: ≥3× speedup.
	build := func() *Graph {
		g := NewGraph()
		for i := 0; i < 16; i++ {
			g.Add("t", []Dep{{rng(uint64(i)*4096, 64), Out}}, func(ctx *Ctx) {
				ctx.Compute(10000)
			})
		}
		return g
	}
	rt1 := NewRuntime(&fake{}, 1, NewFIFO())
	m1 := rt1.Run(build())
	rt4 := NewRuntime(&fake{}, 4, NewFIFO())
	m4 := rt4.Run(build())
	if float64(m1)/float64(m4) < 3.0 {
		t.Fatalf("speedup %.2f < 3 (m1=%d m4=%d)", float64(m1)/float64(m4), m1, m4)
	}
}

func TestRuntimeRegisterAndInvalidatePerTask(t *testing.T) {
	f := &fake{}
	g := NewGraph()
	g.Add("t", []Dep{{rng(0, 64), In}, {rng(4096, 64), Out}}, func(ctx *Ctx) {})
	rt := NewRuntime(f, 2, NewFIFO())
	rt.Run(g)
	if len(f.registered) != 2 {
		t.Fatalf("registered %d regions, want 2", len(f.registered))
	}
	if f.invalidates != 1 {
		t.Fatalf("invalidates = %d, want 1", f.invalidates)
	}
	if rt.Stats.RegisterCycles != 10 || rt.Stats.InvalidateCycles != 7 {
		t.Fatalf("cycle stats %+v", rt.Stats)
	}
}

func TestRuntimeGoldenTracksStores(t *testing.T) {
	f := &fake{}
	g := NewGraph()
	g.Add("w1", []Dep{{rng(0, 128), Out}}, func(ctx *Ctx) {
		ctx.StoreRange(rng(0, 128))
	})
	g.Add("w2", []Dep{{rng(64, 64), Out}}, func(ctx *Ctx) {
		ctx.StoreRange(rng(64, 64))
	})
	rt := NewRuntime(f, 1, NewFIFO())
	rt.Run(g)
	golden := rt.Golden()
	if golden[0] != 1 || golden[1] != 2 {
		t.Fatalf("golden = %v", golden)
	}
	// Must agree with the graph-derived golden writers.
	want := g.GoldenWriters()
	for b, id := range want {
		if golden[b] != id {
			t.Fatalf("block %d: runtime golden %d != graph golden %d", b, golden[b], id)
		}
	}
}

func TestRuntimeIdleAccounting(t *testing.T) {
	f := &fake{}
	g := NewGraph()
	g.Add("a", []Dep{{rng(0, 64), Out}}, func(ctx *Ctx) { ctx.Compute(1000) })
	g.Add("b", []Dep{{rng(0, 64), In}}, func(ctx *Ctx) {})
	rt := NewRuntime(f, 2, NewFIFO())
	rt.Run(g)
	if rt.Stats.IdleCycles == 0 {
		t.Fatal("second core never idled while waiting for the chain")
	}
}

// Property: for random graphs over a small block pool, every task executes,
// and every task starts only after all predecessors' EndTimes.
func TestQuickRuntimeRespectsDependences(t *testing.T) {
	f := func(spec []uint8, cores8 uint8) bool {
		cores := int(cores8%4) + 1
		g := NewGraph()
		for _, s := range spec {
			if g.NumTasks() >= 40 {
				break
			}
			blk := uint64(s & 7)
			mode := []DepMode{In, Out, InOut}[s%3]
			g.Add("t", []Dep{{rng(blk*64, 64), mode}}, func(ctx *Ctx) {
				ctx.Compute(uint64(s))
			})
		}
		rt := NewRuntime(&fake{accessLat: 3}, cores, NewFIFO())
		rt.Run(g)
		for _, tk := range g.Tasks() {
			if !tk.Done() {
				return false
			}
		}
		for _, tk := range g.Tasks() {
			for _, succ := range tk.Succs() {
				if succ.ReadyTime < tk.EndTime {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: LIFO and locality schedulers also execute every task exactly once.
func TestQuickSchedulersComplete(t *testing.T) {
	for _, mk := range []func() Scheduler{
		func() Scheduler { return NewFIFO() },
		func() Scheduler { return NewLIFO() },
		func() Scheduler { return NewLocality() },
	} {
		f := func(spec []uint8) bool {
			g := NewGraph()
			for _, s := range spec {
				if g.NumTasks() >= 25 {
					break
				}
				g.Add("t", []Dep{{rng(uint64(s&3)*64, 64), InOut}}, nil)
			}
			rt := NewRuntime(&fake{}, 3, mk())
			rt.Run(g)
			return rt.Stats.TasksRun == uint64(g.NumTasks())
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Error(err)
		}
	}
}

func TestDepModeHelpers(t *testing.T) {
	if !In.Reads() || In.Writes() {
		t.Fatal("In semantics wrong")
	}
	if Out.Reads() || !Out.Writes() {
		t.Fatal("Out semantics wrong")
	}
	if !InOut.Reads() || !InOut.Writes() {
		t.Fatal("InOut semantics wrong")
	}
	if In.String() != "in" || Out.String() != "out" || InOut.String() != "inout" {
		t.Fatal("DepMode strings wrong")
	}
}
