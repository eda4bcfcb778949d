// Package trace provides an optional event trace for the simulated memory
// hierarchy, in the spirit of gem5's debug flags: protocol events are
// recorded into a bounded ring buffer that can be filtered, counted and
// dumped, without perturbing simulation results. No simulator layer
// records into it: the hierarchy counts the same events in
// coherence.Stats instead.
package trace

import (
	"fmt"
	"io"

	"raccd/internal/mem"
)

// Kind classifies a protocol event.
type Kind uint8

// Event kinds recorded by the hierarchy.
const (
	// CohFill is a coherent L1 fill through the directory.
	CohFill Kind = iota
	// NCFill is a non-coherent L1 fill bypassing the directory.
	NCFill
	// Writeback is a dirty L1 line written back to the LLC or memory.
	Writeback
	// DirRecall is a directory-eviction-induced invalidation (LLC line +
	// L1 copies).
	DirRecall
	// RecoveryFlush is one NC line flushed by raccd_invalidate.
	RecoveryFlush
	// PTFlip is a PT private→shared page transition.
	PTFlip
	// ADRResize is an Adaptive Directory Reduction reconfiguration.
	ADRResize
	// ThreadMigrate is an NCRT migration between cores.
	ThreadMigrate
	numKinds
)

var kindNames = [numKinds]string{
	"coh-fill", "nc-fill", "writeback", "dir-recall",
	"recovery-flush", "pt-flip", "adr-resize", "thread-migrate",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one recorded protocol event. Time is the hierarchy's logical
// clock (its access counter), Core the initiating core (or -1), Block the
// affected cache block (or 0), and Aux carries kind-specific detail (e.g.
// the new set count for ADRResize, the destination core for ThreadMigrate).
type Event struct {
	Time  uint64
	Kind  Kind
	Core  int
	Block mem.Block
	Aux   uint64
}

func (e Event) String() string {
	return fmt.Sprintf("t=%d %s core=%d block=%#x aux=%d",
		e.Time, e.Kind, e.Core, uint64(e.Block), e.Aux)
}

// Buffer is a bounded ring of events with per-kind counters and an optional
// kind filter. The zero value is unusable; call New.
type Buffer struct {
	ring    []Event
	next    int
	wrapped bool
	mask    uint32 // bit per Kind; 0 means record everything
	counts  [numKinds]uint64
	dropped uint64
}

// New returns a buffer retaining the last capacity events.
func New(capacity int) *Buffer {
	if capacity <= 0 {
		panic("trace: capacity must be positive")
	}
	return &Buffer{ring: make([]Event, 0, capacity)}
}

// Filter restricts recording to the given kinds. Calling it with no
// arguments removes the filter.
func (b *Buffer) Filter(kinds ...Kind) {
	b.mask = 0
	for _, k := range kinds {
		b.mask |= 1 << uint(k)
	}
}

// Enabled reports whether events of kind k are being recorded.
func (b *Buffer) Enabled(k Kind) bool {
	return b.mask == 0 || b.mask&(1<<uint(k)) != 0
}

// Record stores an event, evicting the oldest when full. Counters always
// advance for enabled kinds, even for events the ring has dropped.
func (b *Buffer) Record(e Event) {
	if !b.Enabled(e.Kind) {
		return
	}
	b.counts[e.Kind]++
	if len(b.ring) < cap(b.ring) {
		b.ring = append(b.ring, e)
		return
	}
	b.ring[b.next] = e
	b.next = (b.next + 1) % cap(b.ring)
	b.wrapped = true
	b.dropped++
}

// Events returns the retained events in recording order.
func (b *Buffer) Events() []Event {
	if !b.wrapped {
		out := make([]Event, len(b.ring))
		copy(out, b.ring)
		return out
	}
	out := make([]Event, 0, cap(b.ring))
	out = append(out, b.ring[b.next:]...)
	out = append(out, b.ring[:b.next]...)
	return out
}

// Count returns how many events of kind k were recorded (including ones the
// ring has since dropped).
func (b *Buffer) Count(k Kind) uint64 { return b.counts[k] }

// Dropped returns how many events fell off the ring.
func (b *Buffer) Dropped() uint64 { return b.dropped }

// Len returns the number of retained events.
func (b *Buffer) Len() int { return len(b.ring) }

// WriteText dumps the retained events, one per line, followed by a per-kind
// summary.
func (b *Buffer) WriteText(w io.Writer) error {
	for _, e := range b.Events() {
		if _, err := fmt.Fprintln(w, e); err != nil {
			return err
		}
	}
	for k := Kind(0); k < numKinds; k++ {
		if b.counts[k] == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "# %s: %d\n", k, b.counts[k]); err != nil {
			return err
		}
	}
	if b.dropped > 0 {
		if _, err := fmt.Fprintf(w, "# dropped: %d\n", b.dropped); err != nil {
			return err
		}
	}
	return nil
}
