package rts

import (
	"fmt"
	"math/rand"
	"testing"

	"raccd/internal/mem"
)

// refRun is Runtime.Run as it was before idle cores advanced in one
// pass: when the smallest-clock core finds nothing ready it alone moves
// to the earliest ready time, and the next iteration rescans every core.
// It is the oracle TestRunMatchesReference holds Run to.
func refRun(r *Runtime, g *Graph) (makespan uint64) {
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
		c := 0
		for i := 1; i < r.Cores; i++ {
			if clocks[i] < clocks[c] {
				c = i
			}
		}
		t := r.Sched.Pop(c, clocks[c])
		if t == nil {
			minReady, ok := r.Sched.MinReadyTime()
			if !ok {
				panic(fmt.Sprintf("rts: deadlock with %d tasks remaining", remaining))
			}
			if minReady <= clocks[c] {
				minReady = clocks[c] + 1
			}
			r.Stats.IdleCycles += minReady - clocks[c]
			clocks[c] = minReady
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

// ownerMachine charges a cheap access when a block's last toucher was
// the same core and a dear one otherwise, so every timing depends on
// which core ran what before.
type ownerMachine struct{ owner map[mem.Block]int }

func (m *ownerMachine) Access(core int, va mem.Addr, _ bool, _ uint64) uint64 {
	b := mem.BlockOf(va)
	prev, ok := m.owner[b]
	m.owner[b] = core
	if ok && prev == core {
		return 3
	}
	return 40 + uint64(core%5)
}
func (*ownerMachine) RegisterRegion(core int, r mem.Range) uint64 { return 5 + uint64(core%3) }
func (*ownerMachine) InvalidateNC(core int) uint64                { return 7 }

// seededGraph builds n tasks over a small block pool with seeded
// dependences and compute lengths spread wide enough that cores often
// idle waiting for a predecessor.
func seededGraph(seed int64, n int) *Graph {
	rnd := rand.New(rand.NewSource(seed))
	g := NewGraph()
	for i := 0; i < n; i++ {
		deps := make([]Dep, 1+rnd.Intn(3))
		for k := range deps {
			start := uint64(rnd.Intn(48)) * 4 * mem.BlockSize
			deps[k] = Dep{rng(0x2000_0000+start, uint64(1+rnd.Intn(6))*mem.BlockSize), []DepMode{In, Out, InOut}[rnd.Intn(3)]}
		}
		compute := uint64(rnd.Intn(4)) * uint64(rnd.Intn(3000))
		g.Add(fmt.Sprintf("t%d", i), deps, func(ctx *Ctx) {
			for _, d := range ctx.Task.Deps {
				if d.Mode.Writes() {
					ctx.StoreRange(d.Range)
				} else {
					ctx.LoadRange(d.Range)
				}
			}
			ctx.Compute(compute)
		})
	}
	return g
}

// TestRunMatchesReference runs seeded graphs through Run and through the
// one-core-at-a-time reference loop under every scheduler at 1, 2, 16
// and 64 cores: the makespan, every runtime counter and every task's
// core, ready and end times must agree.
func TestRunMatchesReference(t *testing.T) {
	type taskRun struct{ core, ready, end uint64 }
	record := func(g *Graph) []taskRun {
		out := make([]taskRun, 0, g.NumTasks())
		for _, tk := range g.Tasks() {
			out = append(out, taskRun{uint64(tk.CoreRun), tk.ReadyTime, tk.EndTime})
		}
		return out
	}
	for _, sched := range []string{"fifo", "lifo", "locality"} {
		for _, cores := range []int{1, 2, 16, 64} {
			for seed := int64(1); seed <= 4; seed++ {
				g := seededGraph(seed, 240)
				got := NewRuntime(&ownerMachine{owner: map[mem.Block]int{}}, cores, NewScheduler(sched))
				gotSpan := got.Run(g)
				gotTasks := record(g)

				want := NewRuntime(&ownerMachine{owner: map[mem.Block]int{}}, cores, NewScheduler(sched))
				wantSpan := refRun(want, g)
				wantTasks := record(g)

				name := fmt.Sprintf("%s/%d cores/seed %d", sched, cores, seed)
				if gotSpan != wantSpan || got.Stats != want.Stats {
					t.Fatalf("%s: makespan %d, stats %+v; reference %d, %+v", name, gotSpan, got.Stats, wantSpan, want.Stats)
				}
				if cores > 1 && want.Stats.IdleCycles == 0 {
					t.Fatalf("%s: no core ever idled, so the comparison proves nothing", name)
				}
				for i := range wantTasks {
					if gotTasks[i] != wantTasks[i] {
						t.Fatalf("%s: task %d ran as %+v, reference %+v", name, i, gotTasks[i], wantTasks[i])
					}
				}
			}
		}
	}
}
