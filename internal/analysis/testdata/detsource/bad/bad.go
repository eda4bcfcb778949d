// Package sim is detsource seeded-violation testdata mounted at
// raccd/internal/sim: host clocks, environment reads, randomness
// imports, and an untagged host wall-time field on Result.
package sim

import (
	crand "crypto/rand" // want `imports crypto/rand`
	"math/rand"         // want `imports math/rand`
	"os"
	"time"
)

var _ = crand.Reader
var _ = rand.Int

func stamp() int64 {
	return time.Now().UnixNano() // want `time.Now in sim-core`
}

func home() string {
	return os.Getenv("HOME") // want `os.Getenv in sim-core`
}

// Result mirrors sim.Result's host-artifact convention.
type Result struct {
	Cycles uint64

	WallSeconds float64 // want `must carry .json:"-".`

	HostSeconds float64 `json:"-"` // tagged: allowed
}
