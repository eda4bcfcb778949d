package tracefile

import "raccd/internal/rts"

// TaskOf returns the name and dependences Parse indexed for task i, for
// the tests that compare a parsed trace with the reference decoder's.
func TaskOf(t *Trace, i int) (string, []rts.Dep) {
	return t.tasks[i].name, t.tasks[i].deps
}
