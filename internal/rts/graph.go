package rts

import (
	"fmt"

	"raccd/internal/mem"
)

// Caps on a graph built from outside input, checked before it is built so
// a request past one is refused instead of built: a synth: spec and a
// bundled benchmark at a requested scale are held to both, and a trace
// file's Validate to MaxDepBlocks.
const (
	// MaxTasks bounds the tasks of one graph.
	MaxTasks = 1 << 20
	// MaxDepBlocks bounds a graph's dependence blocks summed over its
	// tasks, which the dependence tracking of Add and Validate grows with.
	MaxDepBlocks = 1 << 24
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
	// so this stays dense. Add walks each range page by page and looks up
	// a page's chunk once, so graph construction performs no map
	// operations and one chunk lookup per page, not per block.
	track mem.PagedDir[blockTrack]
}

// blockTrack holds the last writer and the readers-since of each block of
// one virtual page.
type blockTrack struct {
	lastWriter [mem.BlocksPerPage]*Task
	readers    [mem.BlocksPerPage]*readerList
}

// readerList is an immutable list of the tasks that read a block since its
// last write, newest first. Blocks with the same readers share one list, so
// a read allocates one cell per distinct list it extends, not one per block.
type readerList struct {
	task *Task
	next *readerList
}

// NewGraph returns an empty TDG.
func NewGraph() *Graph { return &Graph{} }

// Tasks returns the created tasks in creation (program) order.
func (g *Graph) Tasks() []*Task { return g.tasks }

// NumTasks returns the number of tasks.
func (g *Graph) NumTasks() int { return len(g.tasks) }

// NumEdges returns the number of dependence edges.
func (g *Graph) NumEdges() uint64 { return g.edges }

// eachPage calls fn once for every page r touches, with the page number and
// the half-open span [lo, hi) of r's blocks within that page.
func eachPage(r mem.Range, fn func(page uint64, lo, hi int)) {
	if r.Empty() {
		return
	}
	end := uint64(r.LastBlock()) + 1
	for b := uint64(r.FirstBlock()); b < end; {
		page := b / mem.BlocksPerPage
		next := (page + 1) * mem.BlocksPerPage
		fn(page, int(b-page*mem.BlocksPerPage), int(min(next, end)-page*mem.BlocksPerPage))
		b = next
	}
}

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
	// map (each task is marked at most once per Add call). The order in
	// which predecessors are found is immaterial: each gains t once, at
	// the end of its successors.
	addPred := func(p *Task) {
		if p == nil || p == t || p.predOf == t {
			return
		}
		p.predOf = t
		p.succs = append(p.succs, t)
		t.npreds++
		g.edges++
	}
	// First pass: RAW and WAW on each block's last writer, WAR on its
	// readers. Neighbouring blocks usually share a last writer and a
	// reader list, so each is visited only when it differs from the one
	// the previous block had.
	var writer *Task
	var walked *readerList
	for _, d := range deps {
		reads, writes := d.Mode.Reads(), d.Mode.Writes()
		if !reads && !writes {
			continue // no valid mode: the dependence names nothing
		}
		eachPage(d.Range, func(page uint64, lo, hi int) {
			tr := g.track.Get(page)
			if tr == nil {
				return // never touched: no writer, no readers
			}
			for i := lo; i < hi; i++ {
				if w := tr.lastWriter[i]; w != writer {
					writer = w
					addPred(w)
				}
				if writes && tr.readers[i] != walked {
					walked = tr.readers[i]
					for l := walked; l != nil; l = l.next {
						addPred(l.task)
					}
				}
			}
		})
	}
	// Second pass: update block state (kept separate so a task never
	// depends on itself through an inout range). A write empties the
	// block's reader list; a read puts t at its head unless t is already
	// there. ext memoises the last extension, so blocks that shared a list
	// share its extension.
	var ext *readerList
	for _, d := range deps {
		reads, writes := d.Mode.Reads(), d.Mode.Writes()
		eachPage(d.Range, func(page uint64, lo, hi int) {
			tr := g.track.GetOrCreate(page)
			if writes {
				for i := lo; i < hi; i++ {
					tr.lastWriter[i] = t
				}
				clear(tr.readers[lo:hi])
			}
			if !reads {
				return
			}
			for i := lo; i < hi; i++ {
				if l := tr.readers[i]; l == nil || l.task != t {
					if ext == nil || ext.next != l {
						ext = &readerList{task: t, next: l}
					}
					tr.readers[i] = ext
				}
			}
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
