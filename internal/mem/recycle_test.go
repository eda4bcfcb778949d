package mem

import "testing"

// TestRecyclerReturnsZeroedSliceOfLength: Get(n) returns exactly n zeroed
// elements, whether it allocates or hands back a slice released zeroed,
// as Put requires.
func TestRecyclerReturnsZeroedSliceOfLength(t *testing.T) {
	var r Recycler[uint64]
	reused := false
	// A sync.Pool may drop a released slice (always possible across a
	// GC, and at random under -race), so retry until one is reused.
	for try := 0; try < 100 && !reused; try++ {
		s := r.Get(8)
		if len(s) != 8 {
			t.Fatalf("Get(8) returned %d elements", len(s))
		}
		for i, v := range s {
			if v != 0 {
				t.Fatalf("try %d: element %d of Get(8) is %#x, want 0", try, i, v)
			}
		}
		r.Put(s)
		if other := r.Get(4); len(other) != 4 {
			t.Fatalf("Get(4) returned %d elements", len(other))
		}
		got := r.Get(8)
		reused = &got[0] == &s[0]
		if len(got) != 8 {
			t.Fatalf("Get(8) returned %d elements", len(got))
		}
		for i, v := range got {
			if v != 0 {
				t.Fatalf("try %d: element %d is %#x, want 0", try, i, v)
			}
		}
	}
	if !reused {
		t.Fatal("Get never reused a released slice in 100 tries")
	}
}
