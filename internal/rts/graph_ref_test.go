package rts

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"raccd/internal/mem"
)

// refGraph is the block-at-a-time dependence tracker Graph.Add used before
// reader lists were shared: one PagedDir probe per block and a reader slice
// per block. It is the oracle the differential tests hold Graph to.
type refGraph struct {
	tasks []*Task
	edges uint64
	track mem.PagedDir[refTrack]
}

type refTrack struct {
	lastWriter [mem.BlocksPerPage]*Task
	readers    [mem.BlocksPerPage][]*Task
}

func (g *refGraph) trackFor(b mem.Block) *refTrack {
	return g.track.GetOrCreate(uint64(b) / mem.BlocksPerPage)
}

func (g *refGraph) add(name string, deps []Dep) {
	t := &Task{
		ID:       uint64(len(g.tasks) + 1),
		Name:     name,
		Deps:     deps,
		seq:      uint64(len(g.tasks)),
		affinity: -1,
	}
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
}

// DiffReference replays g's tasks, in creation order, through the reference
// tracker and reports the first difference in the edge count, a task's
// predecessor count, or a task's successors (compared in order). It is
// exported for the workload-level differential test in package rts_test.
func DiffReference(g *Graph) error {
	ref := &refGraph{}
	for _, t := range g.Tasks() {
		ref.add(t.Name, t.Deps)
	}
	if g.NumEdges() != ref.edges {
		return fmt.Errorf("NumEdges = %d, reference %d", g.NumEdges(), ref.edges)
	}
	for i, t := range g.Tasks() {
		want := ref.tasks[i]
		if t.NumPreds() != want.NumPreds() {
			return fmt.Errorf("%v: NumPreds = %d, reference %d", t, t.NumPreds(), want.NumPreds())
		}
		if got, exp := succIDs(t), succIDs(want); !slices.Equal(got, exp) {
			return fmt.Errorf("%v: Succs = %v, reference %v", t, got, exp)
		}
	}
	return nil
}

func succIDs(t *Task) []uint64 {
	ids := make([]uint64, len(t.Succs()))
	for i, s := range t.Succs() {
		ids[i] = s.ID
	}
	return ids
}

// fuzzBase is the first address FuzzGraphAdd ranges start from; the fuzzed
// offsets span fuzzPages pages above it.
const (
	fuzzBase  = 0x1000_0000
	fuzzPages = 16
)

// decodeDeps turns fuzz input into a task list. Each 5-byte record is one
// dependence: a flag byte (bits 0-1 the mode, where 3 names no valid mode;
// bit 2 starts a new task before this dependence), a little-endian 16-bit
// byte offset from fuzzBase (so starts are unaligned and the first task can
// sit above later ones, growing the chunk directory downward), and a
// little-endian 16-bit size folded to at most three pages.
func decodeDeps(data []byte) [][]Dep {
	var tasks [][]Dep
	var cur []Dep
	for ; len(data) >= 5; data = data[5:] {
		flags := data[0]
		off := uint64(data[1]) | uint64(data[2])<<8
		size := (uint64(data[3]) | uint64(data[4])<<8) % (3*mem.PageSize + 1)
		if flags&4 != 0 && len(cur) > 0 {
			tasks = append(tasks, cur)
			cur = nil
		}
		cur = append(cur, Dep{
			Range: mem.Range{Start: fuzzBase + mem.Addr(off%(fuzzPages*mem.PageSize)), Size: size},
			Mode:  DepMode(flags & 3),
		})
	}
	if len(cur) > 0 {
		tasks = append(tasks, cur)
	}
	return tasks
}

// dep encodes one FuzzGraphAdd record.
func dep(newTask bool, mode DepMode, off, size uint16) []byte {
	flags := byte(mode)
	if newTask {
		flags |= 4
	}
	return []byte{flags, byte(off), byte(off >> 8), byte(size), byte(size >> 8)}
}

func FuzzGraphAdd(f *testing.F) {
	cat := func(recs ...[]byte) []byte {
		var out []byte
		for _, r := range recs {
			out = append(out, r...)
		}
		return out
	}
	// Writer, two readers, then a writer over an unaligned range that
	// crosses a page boundary.
	f.Add(cat(
		dep(true, Out, 4000, 300),
		dep(true, In, 4030, 90),
		dep(true, In, 4095, 2),
		dep(true, InOut, 3990, 5000),
	))
	// The first task sits high; a later one reaches below it, so the
	// chunk directory grows downward.
	f.Add(cat(
		dep(true, Out, 40000, 8192),
		dep(true, In, 100, 12288),
		dep(true, Out, 0, 64),
	))
	// A read over blocks with different reader lists extends each list:
	// the last writer depends on the first reader through block 0 only.
	f.Add(cat(
		dep(true, Out, 0, 128),
		dep(true, In, 0, 64),
		dep(true, In, 0, 128),
		dep(true, Out, 64, 64),
		dep(true, Out, 0, 64),
	))
	// One task names the same blocks twice, read and then written.
	f.Add(cat(
		dep(true, Out, 64, 256),
		dep(true, In, 0, 512),
		dep(false, In, 128, 64),
		dep(false, InOut, 100, 100),
		dep(true, Out, 0, 1024),
	))
	// A dependence with no valid mode, and an empty range.
	f.Add(cat(
		dep(true, Out, 0, 128),
		dep(true, DepMode(3), 0, 128),
		dep(false, In, 64, 0),
		dep(true, InOut, 0, 128),
	))
	f.Fuzz(checkGraphAdd)
}

// TestGraphAddSeeded runs checkGraphAdd, FuzzGraphAdd's body, over a fixed
// seeded set of generated inputs of up to 48 dependence records: the
// tier-1 run of the graph fuzzer. Half the records reach at most 8 KiB
// into the arena, so tasks overlap often; the rest spread over all of it.
func TestGraphAddSeeded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4000; i++ {
		var data []byte
		for n := 1 + rng.Intn(48); n > 0; n-- {
			off := uint16(rng.Intn(1 << 16))
			if rng.Intn(2) == 0 {
				off %= 8192
			}
			data = append(data, dep(rng.Intn(3) > 0, DepMode(rng.Intn(4)), off, uint16(rng.Intn(1<<15)))...)
		}
		checkGraphAdd(t, data)
	}
}

// checkGraphAdd is FuzzGraphAdd's body: it builds the graph data decodes
// to and checks it against the reference tracker and Validate.
func checkGraphAdd(t *testing.T, data []byte) {
	g := NewGraph()
	for i, deps := range decodeDeps(data) {
		g.Add(fmt.Sprintf("t%d", i), deps, nil)
	}
	if err := DiffReference(g); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}
