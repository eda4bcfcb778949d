package tracefile_test

// The reference RTF implementation: the streaming encoder, streaming
// decoder and in-memory []Op model this package used before a Trace
// became its file's bytes. It is the oracle of the differential tests:
// Record must write the bytes refRecord + refEncode write, and Parse must
// accept exactly the inputs refDecode accepts, with the same contents.
// Only the encoder's optional varint padding is new.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"

	"raccd/internal/mem"
	"raccd/internal/rts"
	"raccd/internal/tracefile"
)

// refTrace is a fully decoded workload.
type refTrace struct {
	Header tracefile.Header
	Tasks  []refTask
}

// refTask is one task: its dependence annotations and its ops.
type refTask struct {
	Name string
	Deps []rts.Dep
	Ops  []tracefile.Op
}

// refRecord builds w's graph and dry-runs every body into ops.
func refRecord(w tracefile.Builder, fingerprint uint64) (*refTrace, error) {
	g := rts.NewGraph()
	w.Build(g)
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("tracefile: record %s: %w", w.Name(), err)
	}
	tr := &refTrace{Header: tracefile.Header{
		Version:     tracefile.Version,
		Name:        w.Name(),
		Fingerprint: fingerprint,
		Tasks:       g.NumTasks(),
	}}
	for _, t := range g.Tasks() {
		rec := &refOpRecorder{}
		ctx := rts.NewCtx(0, t, rec)
		if t.Body != nil {
			t.Body(ctx)
		}
		if c := ctx.Cycles(); c > 0 {
			rec.ops = append(rec.ops, tracefile.Op{Kind: tracefile.OpCompute, Cycles: c})
		}
		tr.Tasks = append(tr.Tasks, refTask{Name: t.Name, Deps: t.Deps, Ops: rec.ops})
	}
	return tr, nil
}

type refOpRecorder struct{ ops []tracefile.Op }

func (r *refOpRecorder) Access(_ int, va mem.Addr, write bool, _ uint64) uint64 {
	k := tracefile.OpLoad
	if write {
		k = tracefile.OpStore
	}
	r.ops = append(r.ops, tracefile.Op{Kind: k, Block: mem.BlockOf(va)})
	return 0
}

func (r *refOpRecorder) RegisterRegion(int, mem.Range) uint64 { return 0 }
func (r *refOpRecorder) InvalidateNC(int) uint64              { return 0 }

var refMagic = [4]byte{'R', 'T', 'F', '1'}

const (
	refMaxNameLen = 1 << 16
	refMaxAddr    = tracefile.MaxAddr
	refMaxBlock   = tracefile.MaxBlock
)

func refZigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func refUnzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// refEncoder writes an RTF stream task by task. pad, when set, is asked
// before every varint whether to write it overlong (still valid).
type refEncoder struct {
	bw        *bufio.Writer
	h         hash.Hash64
	hdr       tracefile.Header
	pad       func() bool
	written   int
	prevStart mem.Addr
	prevBlock mem.Block
	err       error
	scratch   [binary.MaxVarintLen64]byte
}

func newRefEncoder(w io.Writer, hdr tracefile.Header, pad func() bool) (*refEncoder, error) {
	if hdr.Version == 0 {
		hdr.Version = tracefile.Version
	}
	if hdr.Version != tracefile.Version {
		return nil, fmt.Errorf("tracefile: cannot encode version %d", hdr.Version)
	}
	if hdr.Tasks < 0 {
		return nil, fmt.Errorf("tracefile: negative task count %d", hdr.Tasks)
	}
	if len(hdr.Name) > refMaxNameLen {
		return nil, fmt.Errorf("tracefile: workload name longer than %d bytes", refMaxNameLen)
	}
	e := &refEncoder{bw: bufio.NewWriter(w), h: fnv.New64a(), hdr: hdr, pad: pad}
	e.raw(refMagic[:])
	e.uvarint(uint64(hdr.Version))
	e.str(hdr.Name)
	e.uvarint(hdr.Fingerprint)
	e.uvarint(uint64(hdr.Tasks))
	if e.err != nil {
		return nil, e.err
	}
	return e, nil
}

func (e *refEncoder) raw(b []byte) {
	if e.err != nil {
		return
	}
	e.h.Write(b)
	_, e.err = e.bw.Write(b)
}

func (e *refEncoder) uvarint(v uint64) {
	n := binary.PutUvarint(e.scratch[:], v)
	if e.pad != nil && n < binary.MaxVarintLen64 && e.pad() {
		// An overlong encoding: one more continuation byte and a zero.
		e.scratch[n-1] |= 0x80
		e.scratch[n] = 0
		n++
	}
	e.raw(e.scratch[:n])
}

func (e *refEncoder) svarint(v int64) { e.uvarint(refZigzag(v)) }

func (e *refEncoder) byte(b byte) {
	e.scratch[0] = b
	e.raw(e.scratch[:1])
}

func (e *refEncoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.raw([]byte(s))
}

func (e *refEncoder) writeTask(t refTask) error {
	if e.err != nil {
		return e.err
	}
	fail := func(format string, args ...any) error {
		e.err = fmt.Errorf("tracefile: task %d (%s): %s", e.written, t.Name, fmt.Sprintf(format, args...))
		return e.err
	}
	if e.written >= e.hdr.Tasks {
		return fail("more tasks than the header's %d", e.hdr.Tasks)
	}
	if len(t.Name) > refMaxNameLen {
		return fail("name longer than %d bytes", refMaxNameLen)
	}
	e.str(t.Name)
	e.uvarint(uint64(len(t.Deps)))
	for i, d := range t.Deps {
		if d.Mode > rts.InOut {
			return fail("dep %d: invalid mode %d", i, d.Mode)
		}
		if d.Range.End() < d.Range.Start || d.Range.End() > refMaxAddr {
			return fail("dep %d: range %v exceeds the %#x address bound", i, d.Range, uint64(refMaxAddr))
		}
		e.byte(byte(d.Mode))
		e.svarint(int64(d.Range.Start) - int64(e.prevStart))
		e.prevStart = d.Range.Start
		e.uvarint(d.Range.Size)
	}
	e.uvarint(uint64(len(t.Ops)))
	for i, op := range t.Ops {
		switch op.Kind {
		case tracefile.OpLoad, tracefile.OpStore:
			if op.Block > refMaxBlock {
				return fail("op %d: block %#x exceeds the %#x block bound", i, uint64(op.Block), uint64(refMaxBlock))
			}
			delta := int64(op.Block) - int64(e.prevBlock)
			e.prevBlock = op.Block
			e.uvarint(refZigzag(delta)<<2 | uint64(op.Kind))
		case tracefile.OpCompute:
			if op.Cycles > tracefile.MaxComputeCycles {
				return fail("op %d: %d compute cycles exceed the bound", i, op.Cycles)
			}
			e.uvarint(op.Cycles<<2 | uint64(tracefile.OpCompute))
		default:
			return fail("op %d: invalid kind %d", i, op.Kind)
		}
	}
	e.written++
	return e.err
}

func (e *refEncoder) close() error {
	if e.err != nil {
		return e.err
	}
	if e.written != e.hdr.Tasks {
		return fmt.Errorf("tracefile: wrote %d tasks, header declared %d", e.written, e.hdr.Tasks)
	}
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], e.h.Sum64())
	if _, err := e.bw.Write(sum[:]); err != nil {
		return err
	}
	return e.bw.Flush()
}

// refEncode serializes t, padding the varints pad picks.
func refEncode(w io.Writer, t *refTrace, pad func() bool) error {
	hdr := t.Header
	hdr.Tasks = len(t.Tasks)
	e, err := newRefEncoder(w, hdr, pad)
	if err != nil {
		return err
	}
	for i := range t.Tasks {
		if err := e.writeTask(t.Tasks[i]); err != nil {
			return err
		}
	}
	return e.close()
}

// refDecoder reads an RTF stream task by task, hashing byte by byte.
type refDecoder struct {
	br        *bufio.Reader
	h         hash.Hash64
	hdr       tracefile.Header
	read      int
	prevStart mem.Addr
	prevBlock mem.Block
	one       [1]byte
}

func newRefDecoder(r io.Reader) (*refDecoder, error) {
	d := &refDecoder{br: bufio.NewReader(r), h: fnv.New64a()}
	var m [4]byte
	if err := d.readFull(m[:]); err != nil {
		return nil, fmt.Errorf("tracefile: reading magic: %w", err)
	}
	if m != refMagic {
		return nil, fmt.Errorf("tracefile: bad magic %q (not an RTF file)", m[:])
	}
	v, err := d.uvarint("version")
	if err != nil {
		return nil, err
	}
	if v != tracefile.Version {
		return nil, fmt.Errorf("tracefile: unsupported version %d", v)
	}
	name, err := d.str("workload name")
	if err != nil {
		return nil, err
	}
	fp, err := d.uvarint("fingerprint")
	if err != nil {
		return nil, err
	}
	n, err := d.uvarint("task count")
	if err != nil {
		return nil, err
	}
	if n > 1<<31-1 {
		return nil, fmt.Errorf("tracefile: implausible task count %d", n)
	}
	d.hdr = tracefile.Header{Version: uint32(v), Name: name, Fingerprint: fp, Tasks: int(n)}
	return d, nil
}

func (d *refDecoder) readFull(b []byte) error {
	if _, err := io.ReadFull(d.br, b); err != nil {
		if errors.Is(err, io.EOF) && len(b) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	d.h.Write(b)
	return nil
}

func (d *refDecoder) ReadByte() (byte, error) {
	c, err := d.br.ReadByte()
	if err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, err
	}
	d.one[0] = c
	d.h.Write(d.one[:])
	return c, nil
}

func (d *refDecoder) uvarint(what string) (uint64, error) {
	v, err := binary.ReadUvarint(d)
	if err != nil {
		return 0, fmt.Errorf("tracefile: reading %s: %w", what, err)
	}
	return v, nil
}

func (d *refDecoder) svarint(what string) (int64, error) {
	v, err := binary.ReadVarint(d)
	if err != nil {
		return 0, fmt.Errorf("tracefile: reading %s: %w", what, err)
	}
	return v, nil
}

func (d *refDecoder) str(what string) (string, error) {
	n, err := d.uvarint(what + " length")
	if err != nil {
		return "", err
	}
	if n > refMaxNameLen {
		return "", fmt.Errorf("tracefile: %s is %d bytes, limit %d", what, n, refMaxNameLen)
	}
	buf := make([]byte, n)
	if err := d.readFull(buf); err != nil {
		return "", fmt.Errorf("tracefile: reading %s: %w", what, err)
	}
	return string(buf), nil
}

func (d *refDecoder) next() (refTask, error) {
	if d.read >= d.hdr.Tasks {
		return refTask{}, io.EOF
	}
	var t refTask
	name, err := d.str(fmt.Sprintf("task %d name", d.read))
	if err != nil {
		return t, err
	}
	t.Name = name
	fail := func(format string, args ...any) (refTask, error) {
		return refTask{}, fmt.Errorf("tracefile: task %d (%s): %s", d.read, name, fmt.Sprintf(format, args...))
	}
	nd, err := d.uvarint("dep count")
	if err != nil {
		return t, err
	}
	if nd > 0 {
		t.Deps = make([]rts.Dep, 0, min(nd, 1024))
	}
	for i := uint64(0); i < nd; i++ {
		mode, err := d.ReadByte()
		if err != nil {
			return fail("dep %d mode: %v", i, err)
		}
		if rts.DepMode(mode) > rts.InOut {
			return fail("dep %d: invalid mode %d", i, mode)
		}
		delta, err := d.svarint("dep start delta")
		if err != nil {
			return fail("dep %d: %v", i, err)
		}
		start := int64(d.prevStart) + delta
		if start < 0 || mem.Addr(start) > refMaxAddr {
			return fail("dep %d: start %d out of the address bound", i, start)
		}
		size, err := d.uvarint("dep size")
		if err != nil {
			return fail("dep %d: %v", i, err)
		}
		r := mem.Range{Start: mem.Addr(start), Size: size}
		if r.End() < r.Start || r.End() > refMaxAddr {
			return fail("dep %d: range %v exceeds the address bound", i, r)
		}
		d.prevStart = r.Start
		t.Deps = append(t.Deps, rts.Dep{Range: r, Mode: rts.DepMode(mode)})
	}
	no, err := d.uvarint("op count")
	if err != nil {
		return t, err
	}
	if no > 0 {
		t.Ops = make([]tracefile.Op, 0, min(no, 4096))
	}
	for i := uint64(0); i < no; i++ {
		word, err := d.uvarint("op")
		if err != nil {
			return fail("op %d: %v", i, err)
		}
		switch kind := tracefile.OpKind(word & 3); kind {
		case tracefile.OpLoad, tracefile.OpStore:
			b := int64(d.prevBlock) + refUnzigzag(word>>2)
			if b < 0 || mem.Block(b) > refMaxBlock {
				return fail("op %d: block %d out of the block bound", i, b)
			}
			d.prevBlock = mem.Block(b)
			t.Ops = append(t.Ops, tracefile.Op{Kind: kind, Block: mem.Block(b)})
		case tracefile.OpCompute:
			cycles := word >> 2
			if cycles > tracefile.MaxComputeCycles {
				return fail("op %d: %d compute cycles exceed the bound", i, cycles)
			}
			t.Ops = append(t.Ops, tracefile.Op{Kind: tracefile.OpCompute, Cycles: cycles})
		default:
			return fail("op %d: invalid kind %d", i, kind)
		}
	}
	d.read++
	return t, nil
}

func (d *refDecoder) close() error {
	if d.read != d.hdr.Tasks {
		return fmt.Errorf("tracefile: close after %d of %d tasks", d.read, d.hdr.Tasks)
	}
	want := d.h.Sum64()
	var sum [8]byte
	if _, err := io.ReadFull(d.br, sum[:]); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("tracefile: reading checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint64(sum[:]); got != want {
		return fmt.Errorf("tracefile: checksum mismatch: file says %#x, content hashes to %#x", got, want)
	}
	if _, err := d.br.ReadByte(); err == nil {
		return fmt.Errorf("tracefile: trailing data after checksum")
	} else if !errors.Is(err, io.EOF) {
		return fmt.Errorf("tracefile: after checksum: %w", err)
	}
	return nil
}

// refDecode reads a complete RTF stream, checksum included.
func refDecode(r io.Reader) (*refTrace, error) {
	d, err := newRefDecoder(r)
	if err != nil {
		return nil, err
	}
	tr := &refTrace{Header: d.hdr}
	for {
		t, err := d.next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		tr.Tasks = append(tr.Tasks, t)
	}
	if err := d.close(); err != nil {
		return nil, err
	}
	return tr, nil
}
