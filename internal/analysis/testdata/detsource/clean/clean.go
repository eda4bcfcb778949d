// Package sim is detsource clean testdata mounted at raccd/internal/sim:
// time the type system (Duration arithmetic) is fine, the clock is not.
package sim

import "time"

func charge(d time.Duration) uint64 {
	return uint64(d / time.Microsecond)
}

type Result struct {
	Cycles      uint64
	WallSeconds float64 `json:"-"`
}
