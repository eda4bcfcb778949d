// Package tracefile implements RTF (RaCCD Trace Format), a compact,
// versioned binary serialization of a complete workload: the task graph
// (task names and in/out/inout dependence ranges) plus each task's
// block-granular access stream. A workload recorded to RTF — whether a
// bundled benchmark, a synthetic task graph or a user program — replays
// under every coherence scheme, directory ratio, ADR and SMT configuration
// exactly like a native workload: a *Trace satisfies sim.Workload.
//
// The format is a self-describing header followed by per-task records with
// varint delta encoding (see docs/TRACE_FORMAT.md for the wire layout) and
// a trailing FNV-1a checksum. A Trace is its file's bytes plus an index of
// its tasks: Parse checks every bound, the task count, the checksum and
// the absence of trailing bytes in one pass, and it is the only way to
// make a Trace. Task bodies replay their ops straight from those bytes,
// and Encode writes them back out unchanged.
package tracefile

import (
	"encoding/binary"
	"fmt"

	"raccd/internal/mem"
	"raccd/internal/rts"
)

// Version is the RTF wire version this package reads and writes.
const Version = 1

const (
	// MaxAddr bounds every address an RTF v1 file may reference (dependence
	// range ends and access blocks). The bound keeps replay memory
	// proportional to the trace: the simulator's page-indexed structures
	// grow with the address SPAN, so an unbounded trace could demand-
	// allocate gigabytes from two far-apart pages. 16 GiB of virtual
	// address space is 64× above the workload arena base.
	MaxAddr mem.Addr = 1 << 34
	// MaxBlock is the largest encodable cache-block number.
	MaxBlock mem.Block = mem.Block(MaxAddr >> mem.BlockBits)
	// MaxComputeCycles bounds one OpCompute record, keeping replayed task
	// latencies far from uint64 clock overflow.
	MaxComputeCycles = 1 << 48

	// maxNameLen bounds workload and task name strings on the wire.
	maxNameLen = 1 << 16
)

// OpKind is the type of one access-stream operation: the low two bits of
// its op word.
type OpKind uint8

// The three operation kinds of a task's access stream.
const (
	// OpLoad is a block-granular read.
	OpLoad OpKind = iota
	// OpStore is a block-granular write (the stored value is the task ID,
	// reproducing the simulator's golden-memory validation).
	OpStore
	// OpCompute is pure compute latency with no memory traffic.
	OpCompute
)

// Op is one operation of a task's access stream, as EachOp yields it.
type Op struct {
	Kind OpKind
	// Block is the accessed cache block (OpLoad, OpStore).
	Block mem.Block
	// Cycles is the pure-compute latency (OpCompute).
	Cycles uint64
}

// Header is the self-describing RTF preamble.
type Header struct {
	// Version is the wire version (currently 1).
	Version uint32
	// Name is the workload name, reported in figures and CSV rows.
	Name string
	// Fingerprint identifies the parameters that produced the trace
	// (benchmark + scale for recordings, the canonical spec for synthetic
	// workloads); 0 means unset. Compare fingerprints to tell whether two
	// trace files claim the same origin.
	Fingerprint uint64
	// Tasks is the number of task records in the file.
	Tasks int
}

// Trace is the validated bytes of one RTF file plus an index of its
// tasks. Make one with Parse (or Decode, ReadFile, Record). A *Trace is a
// sim.Workload: Build replays the recorded graph and access streams. It
// is never modified after Parse, so one Trace may be built and replayed
// from many goroutines at once.
type Trace struct {
	data  []byte // the whole file, checksum included
	hdr   Header
	tasks []task
}

// task indexes one task record.
type task struct {
	name string
	deps []rts.Dep
	ops  []byte    // the task's op words: a span of Trace.data
	base mem.Block // the block the first load/store delta applies to
}

// Header returns the file header.
func (t *Trace) Header() Header { return t.hdr }

// Name returns the workload name carried in the header.
func (t *Trace) Name() string { return t.hdr.Name }

// zigzag maps signed deltas onto small unsigned varints.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Build populates g with the traced task graph. Each task gets the
// recorded dependence annotations and a body that replays the recorded
// access stream from the trace's bytes, so dependence detection,
// scheduling, register/invalidate traffic and golden-memory validation
// behave exactly as they would for the original workload. The bodies
// decode op words themselves rather than through EachOp: replay is the
// hot path, and a call per op is measurable there.
func (t *Trace) Build(g *rts.Graph) {
	for i := range t.tasks {
		tk := &t.tasks[i]
		ops, base := tk.ops, tk.base
		g.Add(tk.name, tk.deps, func(ctx *rts.Ctx) {
			b := base
			for p := 0; p < len(ops); {
				// Parse checked every word; most are one byte.
				w, n := uint64(ops[p]), 1
				if w >= 0x80 {
					w, n = binary.Uvarint(ops[p:])
				}
				p += n
				switch OpKind(w & 3) {
				case OpLoad:
					b += mem.Block(unzigzag(w >> 2))
					ctx.Load(b.Addr())
				case OpStore:
					b += mem.Block(unzigzag(w >> 2))
					ctx.Store(b.Addr())
				default: // OpCompute: Parse rejected the fourth kind
					ctx.Compute(w >> 2)
				}
			}
		})
	}
}

// EachOp calls fn for every op of the trace: tasks in file order, each
// task's ops in issue order.
func (t *Trace) EachOp(fn func(task int, op Op)) {
	for i := range t.tasks {
		tk := &t.tasks[i]
		b := tk.base
		for p := 0; p < len(tk.ops); {
			w, n := uint64(tk.ops[p]), 1
			if w >= 0x80 {
				w, n = binary.Uvarint(tk.ops[p:])
			}
			p += n
			op := Op{Kind: OpKind(w & 3)}
			if op.Kind == OpCompute {
				op.Cycles = w >> 2
			} else {
				b += mem.Block(unzigzag(w >> 2))
				op.Block = b
			}
			fn(i, op)
		}
	}
}

// Fingerprint hashes a canonical parameter string into a header
// fingerprint (FNV-1a 64).
func Fingerprint(s string) uint64 { return checksum([]byte(s)) }

// Validate checks what Parse leaves to a graph build: that the total
// dependence footprint is small enough to track, and that the replayed
// task graph is a well-formed DAG.
func (t *Trace) Validate() error {
	var blocks uint64
	for i := range t.tasks {
		for _, d := range t.tasks[i].deps {
			blocks += d.Range.NumBlocks()
		}
		if blocks > rts.MaxDepBlocks {
			return fmt.Errorf("tracefile: more than %d dependence blocks; too large to validate", rts.MaxDepBlocks)
		}
	}
	g := rts.NewGraph()
	t.Build(g)
	if err := g.Validate(); err != nil {
		return fmt.Errorf("tracefile: %s: %w", t.Name(), err)
	}
	return nil
}

// Stats summarizes a trace for humans (cmd/raccdtrace info).
type Stats struct {
	Tasks   int
	Deps    int
	Loads   uint64
	Stores  uint64
	Compute uint64
	Edges   uint64
}

// Summarize counts the trace's contents and, when buildGraph is set, the
// dependence edges of the replayed TDG.
func (t *Trace) Summarize(buildGraph bool) Stats {
	s := Stats{Tasks: len(t.tasks)}
	for i := range t.tasks {
		s.Deps += len(t.tasks[i].deps)
	}
	t.EachOp(func(_ int, op Op) {
		switch op.Kind {
		case OpLoad:
			s.Loads++
		case OpStore:
			s.Stores++
		case OpCompute:
			s.Compute += op.Cycles
		}
	})
	if buildGraph {
		g := rts.NewGraph()
		t.Build(g)
		s.Edges = g.NumEdges()
	}
	return s
}
