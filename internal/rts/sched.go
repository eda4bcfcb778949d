package rts

import "container/heap"

// Scheduler is a ready-queue policy: it holds tasks whose dependences are
// satisfied and hands them to idle cores. The paper's runtime uses a dynamic
// scheduler, which is what makes data temporarily private (it migrates
// between cores) — the effect PT cannot classify and RaCCD can.
type Scheduler interface {
	// Push inserts a task that became ready at the given time.
	Push(t *Task)
	// Pop removes and returns the best ready task for the given core whose
	// ReadyTime does not exceed now. It returns nil exactly when no
	// queued task's ReadyTime is at or before now: Runtime.Run relies on
	// that to advance every idle core to the next ready time at once.
	Pop(core int, now uint64) *Task
	// MinReadyTime returns the earliest ReadyTime among queued tasks.
	// ok is false when the queue is empty.
	MinReadyTime() (t uint64, ok bool)
	// Len returns the number of queued tasks.
	Len() int
	// Name identifies the policy.
	Name() string
}

// --- FIFO ---

// fifoHeap orders tasks by ready time, breaking ties by creation order.
type fifoHeap []*Task

func (h fifoHeap) Len() int { return len(h) }
func (h fifoHeap) Less(i, j int) bool {
	if h[i].ReadyTime != h[j].ReadyTime {
		return h[i].ReadyTime < h[j].ReadyTime
	}
	return h[i].seq < h[j].seq
}
func (h fifoHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *fifoHeap) Push(x interface{}) { *h = append(*h, x.(*Task)) }
func (h *fifoHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// FIFO is the default central ready queue: oldest ready task first.
type FIFO struct{ h fifoHeap }

// NewFIFO returns an empty FIFO scheduler.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements Scheduler.
func (f *FIFO) Name() string { return "fifo" }

// Push implements Scheduler.
func (f *FIFO) Push(t *Task) { heap.Push(&f.h, t) }

// Pop implements Scheduler.
func (f *FIFO) Pop(core int, now uint64) *Task {
	if len(f.h) == 0 || f.h[0].ReadyTime > now {
		return nil
	}
	return heap.Pop(&f.h).(*Task)
}

// MinReadyTime implements Scheduler.
func (f *FIFO) MinReadyTime() (uint64, bool) {
	if len(f.h) == 0 {
		return 0, false
	}
	return f.h[0].ReadyTime, true
}

// Len implements Scheduler.
func (f *FIFO) Len() int { return len(f.h) }

// --- LIFO ---

// LIFO pops the most recently readied task first (depth-first execution,
// often better for locality within a dependence chain).
type LIFO struct {
	stack []*Task
}

// NewLIFO returns an empty LIFO scheduler.
func NewLIFO() *LIFO { return &LIFO{} }

// Name implements Scheduler.
func (l *LIFO) Name() string { return "lifo" }

// Push implements Scheduler.
func (l *LIFO) Push(t *Task) { l.stack = append(l.stack, t) }

// Pop implements Scheduler.
func (l *LIFO) Pop(core int, now uint64) *Task {
	// Scan from the top for the first task that is ready at `now`.
	for i := len(l.stack) - 1; i >= 0; i-- {
		if l.stack[i].ReadyTime <= now {
			t := l.stack[i]
			l.stack = append(l.stack[:i], l.stack[i+1:]...)
			return t
		}
	}
	return nil
}

// MinReadyTime implements Scheduler.
func (l *LIFO) MinReadyTime() (uint64, bool) {
	if len(l.stack) == 0 {
		return 0, false
	}
	min := l.stack[0].ReadyTime
	for _, t := range l.stack[1:] {
		if t.ReadyTime < min {
			min = t.ReadyTime
		}
	}
	return min, true
}

// Len implements Scheduler.
func (l *LIFO) Len() int { return len(l.stack) }

// --- locality-aware ---

// Locality prefers, among ready tasks, one whose first input was produced by
// the requesting core (so its data is likely still in that core's cache),
// falling back to FIFO order. This is the ablation scheduler for studying
// how scheduler-induced data migration affects the PT/RaCCD gap.
type Locality struct{ h fifoHeap }

// NewLocality returns an empty locality-aware scheduler.
func NewLocality() *Locality { return &Locality{} }

// Name implements Scheduler.
func (s *Locality) Name() string { return "locality" }

// Push implements Scheduler.
func (s *Locality) Push(t *Task) { heap.Push(&s.h, t) }

// Pop implements Scheduler.
func (s *Locality) Pop(core int, now uint64) *Task {
	if len(s.h) == 0 || s.h[0].ReadyTime > now {
		return nil
	}
	// Look through the ready prefix for an affinity match. The heap is
	// not fully sorted, so scan all entries ready at `now`, bounded to a
	// small window to stay cheap.
	const window = 32
	best := -1
	for i := 0; i < len(s.h) && i < window; i++ {
		if s.h[i].ReadyTime > now {
			continue
		}
		if s.h[i].affinity == core {
			best = i
			break
		}
	}
	if best < 0 {
		return heap.Pop(&s.h).(*Task)
	}
	t := s.h[best]
	heap.Remove(&s.h, best)
	return t
}

// MinReadyTime implements Scheduler.
func (s *Locality) MinReadyTime() (uint64, bool) {
	if len(s.h) == 0 {
		return 0, false
	}
	return s.h[0].ReadyTime, true
}

// Len implements Scheduler.
func (s *Locality) Len() int { return len(s.h) }

// NewScheduler builds a scheduler by policy name ("fifo", "lifo",
// "locality").
func NewScheduler(name string) Scheduler {
	switch name {
	case "", "fifo":
		return NewFIFO()
	case "lifo":
		return NewLIFO()
	case "locality":
		return NewLocality()
	}
	panic("rts: unknown scheduler policy " + name)
}
