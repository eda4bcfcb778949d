package tracefile

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"raccd/internal/mem"
	"raccd/internal/rts"
)

// Builder is what Record needs from a workload: the same method set as
// sim.Workload (kept structural here to avoid importing the simulator).
type Builder interface {
	Name() string
	Build(g *rts.Graph)
}

// Record builds w's task graph and captures every task's access stream by
// dry-running the task bodies against a capturing machine that writes
// them straight into RTF bytes, checking each record against the format's
// bounds as it goes; then it parses those bytes. No simulation state is
// involved, so a recording is scheme-independent and deterministic. The
// fingerprint is stored in the header; use Fingerprint(...) over a
// canonical parameter string.
//
// Access streams are captured at cache-block granularity (the granularity
// at which the simulated hierarchy operates), and pure-compute cycles are
// aggregated into one trailing OpCompute — both lossless for simulation
// results, which depend only on the block sequence and the additive
// compute total.
func Record(w Builder, fingerprint uint64) (*Trace, error) {
	g := rts.NewGraph()
	w.Build(g)
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("tracefile: record %s: %w", w.Name(), err)
	}
	var r recorder
	if err := r.record(w.Name(), fingerprint, g); err != nil {
		return nil, fmt.Errorf("tracefile: record %s: %w", w.Name(), err)
	}
	return Parse(r.buf)
}

// recorder writes one RTF file. It is also the rts.Machine a task body
// runs against while recording: every access becomes an op word, every
// latency is zero.
type recorder struct {
	buf       []byte // the file so far
	ops       []byte // the op words of the task being recorded
	nops      uint64
	err       error // the first out-of-bound access of that task
	prevStart int64 // delta base of dependence starts
	prevBlock int64 // delta base of access blocks
}

func (r *recorder) record(name string, fingerprint uint64, g *rts.Graph) error {
	if err := checkName("workload name", uint64(len(name))); err != nil {
		return err
	}
	r.buf = append(r.buf, magic[:]...)
	r.buf = binary.AppendUvarint(r.buf, Version)
	r.buf = appendString(r.buf, name)
	r.buf = binary.AppendUvarint(r.buf, fingerprint)
	r.buf = binary.AppendUvarint(r.buf, uint64(g.NumTasks()))
	for i, t := range g.Tasks() {
		if err := r.task(t); err != nil {
			return fmt.Errorf("task %d (%s): %w", i, t.Name, err)
		}
	}
	r.buf = binary.LittleEndian.AppendUint64(r.buf, checksum(r.buf))
	return nil
}

// task appends t's record: its name, its dependences and the ops its body
// issues.
func (r *recorder) task(t *rts.Task) error {
	if err := checkName("name", uint64(len(t.Name))); err != nil {
		return err
	}
	r.buf = appendString(r.buf, t.Name)
	r.buf = binary.AppendUvarint(r.buf, uint64(len(t.Deps)))
	for j, d := range t.Deps {
		if _, err := checkDep(d.Mode, int64(d.Range.Start), d.Range.Size); err != nil {
			return fmt.Errorf("dep %d: %w", j, err)
		}
		r.buf = append(r.buf, byte(d.Mode))
		r.buf = binary.AppendVarint(r.buf, int64(d.Range.Start)-r.prevStart)
		r.buf = binary.AppendUvarint(r.buf, d.Range.Size)
		r.prevStart = int64(d.Range.Start)
	}
	r.ops, r.nops, r.err = r.ops[:0], 0, nil
	ctx := rts.NewCtx(0, t, r)
	if t.Body != nil {
		t.Body(ctx)
	}
	if r.err != nil {
		return r.err
	}
	// On a recording context Cycles is exactly the pure-Compute total.
	if c := ctx.Cycles(); c > 0 {
		if err := checkCompute(c); err != nil {
			return fmt.Errorf("op %d: %w", r.nops, err)
		}
		r.op(c<<2 | uint64(OpCompute))
	}
	r.buf = binary.AppendUvarint(r.buf, r.nops)
	r.buf = append(r.buf, r.ops...)
	return nil
}

func (r *recorder) op(word uint64) {
	r.ops = binary.AppendUvarint(r.ops, word)
	r.nops++
}

func (r *recorder) Access(_ int, va mem.Addr, write bool, _ uint64) uint64 {
	b := int64(mem.BlockOf(va))
	if err := checkBlock(b); err != nil {
		if r.err == nil {
			r.err = fmt.Errorf("op %d: %w", r.nops, err)
		}
		return 0
	}
	k := OpLoad
	if write {
		k = OpStore
	}
	r.op(zigzag(b-r.prevBlock)<<2 | uint64(k))
	r.prevBlock = b
	return 0
}

func (r *recorder) RegisterRegion(int, mem.Range) uint64 { return 0 }
func (r *recorder) InvalidateNC(int) uint64              { return 0 }

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// Encode writes t's bytes to w: for a parsed trace, exactly the bytes it
// was parsed from.
func Encode(w io.Writer, t *Trace) error {
	_, err := w.Write(t.data)
	return err
}

// WriteFile writes t's bytes to path.
func WriteFile(path string, t *Trace) error {
	return os.WriteFile(path, t.data, 0o666)
}
