package rts

import (
	"fmt"

	"raccd/internal/mem"
)

// Graph is the Task Dependence Graph (TDG): a DAG whose nodes are tasks and
// whose edges are data dependences discovered from the in/out/inout ranges,
// exactly as the runtime of a task-based data-flow model builds it when the
// main thread creates tasks (§II-C).
//
// Dependence detection runs at cache-block granularity: for every block a
// task reads it depends on the block's last writer (RAW); for every block it
// writes it depends on the last writer (WAW) and all readers since (WAR).
type Graph struct {
	tasks []*Task
	edges uint64

	// Dependence state per virtual block, in lazily-allocated per-page
	// chunks indexed by page number relative to the first touched page:
	// workload arenas are contiguous (but start at a large base address),
	// so this stays dense, and graph construction — one probe and one
	// update per block per dependence — performs no map operations.
	track mem.PagedDir[blockTrack]
}

// blockTrack holds the last writer and the readers-since of each block of
// one virtual page.
type blockTrack struct {
	lastWriter [mem.BlocksPerPage]*Task
	readers    [mem.BlocksPerPage][]*Task
}

// trackFor returns the chunk covering block b, allocating it on first use.
func (g *Graph) trackFor(b mem.Block) *blockTrack {
	return g.track.GetOrCreate(uint64(b) / mem.BlocksPerPage)
}

// NewGraph returns an empty TDG.
func NewGraph() *Graph { return &Graph{} }

// Tasks returns the created tasks in creation (program) order.
func (g *Graph) Tasks() []*Task { return g.tasks }

// NumTasks returns the number of tasks.
func (g *Graph) NumTasks() int { return len(g.tasks) }

// NumEdges returns the number of dependence edges.
func (g *Graph) NumEdges() uint64 { return g.edges }

// Add creates a task with the given dependences and body and inserts it into
// the TDG. It mirrors #pragma omp task depend(...).
func (g *Graph) Add(name string, deps []Dep, body Kernel) *Task {
	t := &Task{
		ID:       uint64(len(g.tasks) + 1),
		Name:     name,
		Deps:     deps,
		Body:     body,
		seq:      uint64(len(g.tasks)),
		affinity: -1,
	}
	// A predecessor found through several blocks must contribute one edge;
	// the predOf mark on the predecessor itself replaces a per-Add dedup
	// map (each task is marked at most once per Add call).
	addPred := func(p *Task) {
		if p == nil || p == t || p.predOf == t {
			return
		}
		p.predOf = t
		p.succs = append(p.succs, t)
		t.npreds++
		g.edges++
	}
	for _, d := range deps {
		d.Range.Blocks(func(b mem.Block) bool {
			tr := g.trackFor(b)
			i := uint64(b) % mem.BlocksPerPage
			if d.Mode.Reads() {
				addPred(tr.lastWriter[i])
			}
			if d.Mode.Writes() {
				addPred(tr.lastWriter[i])
				for _, r := range tr.readers[i] {
					addPred(r)
				}
			}
			return true
		})
	}
	// Second pass: update block state (kept separate so a task never
	// depends on itself through an inout range).
	for _, d := range deps {
		d.Range.Blocks(func(b mem.Block) bool {
			tr := g.trackFor(b)
			i := uint64(b) % mem.BlocksPerPage
			if d.Mode.Writes() {
				tr.lastWriter[i] = t
				tr.readers[i] = tr.readers[i][:0]
			}
			if d.Mode.Reads() {
				tr.readers[i] = append(tr.readers[i], t)
			}
			return true
		})
	}
	t.waiting = t.npreds
	g.tasks = append(g.tasks, t)
	return t
}

// Roots returns the tasks with no predecessors.
func (g *Graph) Roots() []*Task {
	var out []*Task
	for _, t := range g.tasks {
		if t.npreds == 0 {
			out = append(out, t)
		}
	}
	return out
}

// Validate checks that the TDG is acyclic (it is by construction — all edges
// point from earlier to later creation order — but tests assert it).
func (g *Graph) Validate() error {
	for _, t := range g.tasks {
		for _, s := range t.succs {
			if s.seq <= t.seq {
				return fmt.Errorf("rts: edge %v -> %v violates creation order", t, s)
			}
		}
	}
	return nil
}

// CriticalPathLen returns the number of tasks on the longest dependence
// chain, a lower bound on any schedule's task count per core.
func (g *Graph) CriticalPathLen() int {
	depth := make(map[*Task]int, len(g.tasks))
	longest := 0
	for _, t := range g.tasks { // creation order is topological
		d := 1
		// depth[t] was raised by t's predecessors, which come earlier.
		if v, ok := depth[t]; ok {
			d = v
		}
		if d > longest {
			longest = d
		}
		for _, s := range t.succs {
			if d+1 > depth[s] {
				depth[s] = d + 1
			}
		}
	}
	return longest
}

// GoldenWriters returns, for every block covered by a write-mode dependence,
// the ID of the task that is the final writer in program order. Because
// writers of a block are totally ordered by WAW edges, this is the unique
// correct final memory image, used to validate runs end to end.
func (g *Graph) GoldenWriters() map[mem.Block]uint64 {
	golden := make(map[mem.Block]uint64)
	for _, t := range g.tasks {
		for _, d := range t.Deps {
			if !d.Mode.Writes() {
				continue
			}
			d.Range.Blocks(func(b mem.Block) bool {
				golden[b] = t.ID
				return true
			})
		}
	}
	return golden
}
