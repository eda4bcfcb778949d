package tracefile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"

	"raccd/internal/mem"
	"raccd/internal/rts"
)

// magic opens every RTF file.
var magic = [4]byte{'R', 'T', 'F', '1'}

// Parse checks data as one RTF file and returns the trace it holds: the
// magic and version, every bound of the format, the header's task count,
// the trailing checksum and the absence of bytes after it. Malformed
// input of any shape is a descriptive error, never a panic, and the
// index grows with the bytes present, not with the counts they claim.
// The trace keeps data, so the caller must not modify it afterwards.
func Parse(data []byte) (*Trace, error) {
	t, err := parse(data)
	if err != nil {
		return nil, fmt.Errorf("tracefile: %w", err)
	}
	return t, nil
}

// Decode reads r to its end and parses what it read.
func Decode(r io.Reader) (*Trace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("tracefile: %w", err)
	}
	return Parse(data)
}

// ReadFile reads and parses the RTF file at path.
func ReadFile(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%w (reading %s)", err, path)
	}
	return t, nil
}

func parse(data []byte) (*Trace, error) {
	if len(data) < len(magic) {
		return nil, fmt.Errorf("reading magic: %w", io.ErrUnexpectedEOF)
	}
	if m := [4]byte(data); m != magic {
		return nil, fmt.Errorf("bad magic %q (not an RTF file)", m[:])
	}
	p := parser{data: data, off: len(magic)}
	v, err := p.uvarint("version")
	if err != nil {
		return nil, err
	}
	if v != Version {
		return nil, fmt.Errorf("unsupported version %d (decoder reads %d)", v, Version)
	}
	name, err := p.str("workload name")
	if err != nil {
		return nil, err
	}
	fp, err := p.uvarint("fingerprint")
	if err != nil {
		return nil, err
	}
	n, err := p.uvarint("task count")
	if err != nil {
		return nil, err
	}
	// A task record is at least 3 bytes, so any real count fits an int32;
	// larger claims cannot be backed by input we are willing to read.
	if n > 1<<31-1 {
		return nil, fmt.Errorf("implausible task count %d", n)
	}
	t := &Trace{
		data:  data,
		hdr:   Header{Version: uint32(v), Name: name, Fingerprint: fp, Tasks: int(n)},
		tasks: make([]task, 0, min(n, uint64(len(data)-p.off)/3)),
	}
	for i := 0; i < int(n); i++ {
		var tk task
		if err := p.task(&tk); err != nil {
			return nil, fmt.Errorf("task %d (%s): %w", i, tk.name, err)
		}
		t.tasks = append(t.tasks, tk)
	}
	body := p.off
	if len(data)-body < 8 {
		return nil, fmt.Errorf("reading checksum: %w", io.ErrUnexpectedEOF)
	}
	if got, want := binary.LittleEndian.Uint64(data[body:]), checksum(data[:body]); got != want {
		return nil, fmt.Errorf("checksum mismatch: file says %#x, content hashes to %#x", got, want)
	}
	if len(data) > body+8 {
		return nil, errors.New("trailing data after checksum")
	}
	return t, nil
}

// checksum is the RTF trailer of body: FNV-1a 64.
func checksum(body []byte) uint64 {
	h := fnv.New64a()
	h.Write(body)
	return h.Sum64()
}

// parser is a cursor over one RTF file, with the file-wide delta bases
// of dependence starts and access blocks.
type parser struct {
	data      []byte
	off       int
	prevStart int64
	prevBlock int64
}

// task parses one task record into tk, naming tk as soon as its name is
// read.
func (p *parser) task(tk *task) error {
	var err error
	if tk.name, err = p.str("name"); err != nil {
		return err
	}
	nd, err := p.uvarint("dep count")
	if err != nil {
		return err
	}
	if nd > 0 {
		tk.deps = make([]rts.Dep, 0, min(nd, uint64(len(p.data)-p.off)/3))
	}
	for j := uint64(0); j < nd; j++ {
		if p.off == len(p.data) {
			return fmt.Errorf("dep %d mode: %w", j, io.ErrUnexpectedEOF)
		}
		mode := rts.DepMode(p.data[p.off])
		p.off++
		delta, err := p.uvarint("dep start delta")
		if err != nil {
			return fmt.Errorf("dep %d: %w", j, err)
		}
		size, err := p.uvarint("dep size")
		if err != nil {
			return fmt.Errorf("dep %d: %w", j, err)
		}
		d, err := checkDep(mode, p.prevStart+unzigzag(delta), size)
		if err != nil {
			return fmt.Errorf("dep %d: %w", j, err)
		}
		p.prevStart = int64(d.Range.Start)
		tk.deps = append(tk.deps, d)
	}
	no, err := p.uvarint("op count")
	if err != nil {
		return err
	}
	start := p.off
	tk.base = mem.Block(p.prevBlock)
	for j := uint64(0); j < no; j++ {
		// Most op words are one byte: those take no call.
		var w uint64
		if p.off < len(p.data) && p.data[p.off] < 0x80 {
			w = uint64(p.data[p.off])
			p.off++
		} else if w, err = p.uvarint("op"); err != nil {
			return fmt.Errorf("op %d: %w", j, err)
		}
		switch kind := OpKind(w & 3); kind {
		case OpLoad, OpStore:
			b := p.prevBlock + unzigzag(w>>2)
			if err := checkBlock(b); err != nil {
				return fmt.Errorf("op %d: %w", j, err)
			}
			p.prevBlock = b
		case OpCompute:
			if err := checkCompute(w >> 2); err != nil {
				return fmt.Errorf("op %d: %w", j, err)
			}
		default:
			return fmt.Errorf("op %d: invalid kind %d", j, kind)
		}
	}
	tk.ops = p.data[start:p.off]
	return nil
}

// uvarint reads one varint.
func (p *parser) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(p.data[p.off:])
	switch {
	case n == 0:
		return 0, fmt.Errorf("reading %s: %w", what, io.ErrUnexpectedEOF)
	case n < 0:
		return 0, fmt.Errorf("reading %s: varint overflows a 64-bit integer", what)
	}
	p.off += n
	return v, nil
}

// str reads one length-prefixed string.
func (p *parser) str(what string) (string, error) {
	n, err := p.uvarint(what)
	if err != nil {
		return "", err
	}
	if err := checkName(what, n); err != nil {
		return "", err
	}
	if uint64(len(p.data)-p.off) < n {
		return "", fmt.Errorf("reading %s: %w", what, io.ErrUnexpectedEOF)
	}
	s := string(p.data[p.off : p.off+int(n)])
	p.off += int(n)
	return s, nil
}

// The bounds of the format, checked by Parse on every file and by Record
// on every record it writes.

// checkName checks the length of a workload or task name.
func checkName(what string, n uint64) error {
	if n > maxNameLen {
		return fmt.Errorf("%s is %d bytes, limit %d", what, n, maxNameLen)
	}
	return nil
}

// checkDep checks one dependence and returns it. start is signed: a
// delta-decoded start can fall below zero.
func checkDep(mode rts.DepMode, start int64, size uint64) (rts.Dep, error) {
	if mode > rts.InOut {
		return rts.Dep{}, fmt.Errorf("invalid mode %d", mode)
	}
	if start < 0 || mem.Addr(start) > MaxAddr {
		return rts.Dep{}, fmt.Errorf("start %d out of the [0, %#x] address bound", start, uint64(MaxAddr))
	}
	r := mem.Range{Start: mem.Addr(start), Size: size}
	if r.End() < r.Start || r.End() > MaxAddr {
		return rts.Dep{}, fmt.Errorf("range %v exceeds the %#x address bound", r, uint64(MaxAddr))
	}
	return rts.Dep{Range: r, Mode: mode}, nil
}

// checkBlock checks the block of one load or store. b is signed: a
// delta-decoded block can fall below zero.
func checkBlock(b int64) error {
	if b < 0 || mem.Block(b) > MaxBlock {
		return fmt.Errorf("block %d out of the [0, %#x] block bound", b, uint64(MaxBlock))
	}
	return nil
}

// checkCompute checks the cycles of one compute op.
func checkCompute(cycles uint64) error {
	if cycles > MaxComputeCycles {
		return fmt.Errorf("%d compute cycles exceed the %d bound", cycles, uint64(MaxComputeCycles))
	}
	return nil
}
