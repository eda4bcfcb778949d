package mem

import "sync"

// Recycler hands the large fixed arrays of a run's caches and directory
// from a finished run to the next one, so back-to-back runs of one
// geometry reuse their memory instead of allocating it again. Arrays are
// pooled by length: Get(n) only ever returns a slice of exactly n
// elements. Put takes zeroed slices only, so Get returns a zeroed slice
// without clearing it: the releasing run clears what it wrote, which
// costs its footprint rather than the array's length. The zero value is
// ready to use and safe for concurrent runs.
type Recycler[T any] struct {
	pools sync.Map // length → *sync.Pool of *[]T
}

// Get returns a zeroed slice of n elements: a released one of that
// length, as Put received it, when one is pooled, and a new one
// otherwise.
func (r *Recycler[T]) Get(n int) []T {
	if s, ok := r.pool(n).Get().(*[]T); ok {
		return *s
	}
	return make([]T, n)
}

// Put releases s, which must be all zero, for reuse. The caller must not
// touch s afterwards: the next Get of its length may hand it to another
// run.
func (r *Recycler[T]) Put(s []T) {
	if len(s) == 0 {
		return
	}
	r.pool(len(s)).Put(&s)
}

func (r *Recycler[T]) pool(n int) *sync.Pool {
	if p, ok := r.pools.Load(n); ok {
		return p.(*sync.Pool)
	}
	p, _ := r.pools.LoadOrStore(n, new(sync.Pool))
	return p.(*sync.Pool)
}
