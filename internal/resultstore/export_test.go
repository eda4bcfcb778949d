package resultstore

import "time"

// setAtimeForTest pins an object's in-memory recency so LRU tests don't
// depend on filesystem timestamp granularity.
func setAtimeForTest(s *Store, k Key, at time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.index[k.hash]; ok {
		e.atime = at
		s.index[k.hash] = e
	}
}

// memHeld reports whether s holds a decoded copy of k's object.
func memHeld(s *Store, k Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.mem[k.hash]
	return ok
}

// memLen returns how many decoded copies s holds.
func memLen(s *Store) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem)
}
