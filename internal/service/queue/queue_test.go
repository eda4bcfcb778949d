package queue

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestQueueSubmitGetOrder(t *testing.T) {
	q := New(4)
	var ids []string
	for i := 0; i < 3; i++ {
		j := NewJob(q.NewID(), "run", "", 1)
		if err := q.Submit(j); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID())
	}
	if ids[0] != "j000001" || ids[2] != "j000003" {
		t.Fatalf("ids = %v, want dense j%%06d", ids)
	}
	if q.Depth() != 3 {
		t.Fatalf("depth = %d, want 3", q.Depth())
	}
	for i, j := range q.Jobs() {
		if j.ID() != ids[i] {
			t.Fatalf("Jobs()[%d] = %s, want submission order %v", i, j.ID(), ids)
		}
	}
	j, err := q.Get(ids[1])
	if err != nil || j.ID() != ids[1] {
		t.Fatalf("Get(%s) = %v, %v", ids[1], j, err)
	}
	if _, err := q.Get("j999999"); err == nil {
		t.Fatal("Get of unknown id succeeded")
	}
}

func TestQueueFullAndClosed(t *testing.T) {
	q := New(1)
	first := NewJob(q.NewID(), "run", "", 1)
	if err := q.Submit(first); err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(NewJob(q.NewID(), "run", "", 1)); err != ErrFull {
		t.Fatalf("overflow submit err = %v, want ErrFull", err)
	}
	// A finished job frees its place.
	finish(q, first)
	second := NewJob(q.NewID(), "run", "", 1)
	if err := q.Submit(second); err != nil {
		t.Fatalf("submit after Done: %v", err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(NewJob(q.NewID(), "run", "", 1)); err != ErrClosed {
		t.Fatalf("post-close submit err = %v, want ErrClosed", err)
	}
	if err := q.Close(); err == nil {
		t.Fatal("second Close did not error")
	}
	// The job accepted before Close still counts until it finishes, and
	// Wait returns once it is Done.
	if q.Depth() != 1 {
		t.Fatalf("depth after close = %d, want the 1 unfinished job", q.Depth())
	}
	finish(q, second)
	q.Wait()
	if q.Depth() != 0 {
		t.Fatalf("depth after Done = %d, want 0", q.Depth())
	}
}

func TestJobLifecycleEvents(t *testing.T) {
	j := NewJob("j000001", "sweep", "", 3)
	if st := j.Status(); st.State != StateQueued || st.RunsTotal != 3 || st.Kind != "sweep" {
		t.Fatalf("fresh job status = %+v", st)
	}
	j.SetState(StateRunning, "")
	j.Progress("line one")
	j.Progress("line two")
	j.Finish("csv\n", nil)

	st := j.Status()
	if st.State != StateDone || st.RunsDone != 2 || st.ResultURL == "" {
		t.Fatalf("done status = %+v", st)
	}
	if st.Started.IsZero() || st.Finished.IsZero() {
		t.Fatal("timestamps not stamped")
	}
	csv, state, errMsg := j.Result()
	if csv != "csv\n" || state != StateDone || errMsg != "" {
		t.Fatalf("Result() = %q, %v, %q", csv, state, errMsg)
	}

	evs, _, finished := j.EventsSince(0)
	if !finished {
		t.Fatal("job not reported finished")
	}
	// queued, running, progress x2, done-status, done
	types := make([]string, len(evs))
	for i, e := range evs {
		if e.ID != i {
			t.Fatalf("event %d has id %d, want dense ids", i, e.ID)
		}
		types[i] = e.Type
	}
	want := []string{"status", "status", "progress", "progress", "status", "done"}
	if len(types) != len(want) {
		t.Fatalf("event types = %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("event types = %v, want %v", types, want)
		}
	}
	var p struct {
		Index int    `json:"index"`
		Line  string `json:"line"`
	}
	if err := json.Unmarshal(evs[3].Data, &p); err != nil || p.Index != 1 || p.Line != "line two" {
		t.Fatalf("progress payload = %+v (%v)", p, err)
	}

	tail, _, _ := j.EventsSince(4)
	if len(tail) != 2 || tail[0].ID != 4 {
		t.Fatalf("EventsSince(4) = %d events starting at %d", len(tail), tail[0].ID)
	}
}

func TestJobFinishOutcomes(t *testing.T) {
	fail := NewJob("j1", "run", "", 1)
	fail.Finish("", errors.New("boom"))
	if _, state, msg := fail.Result(); state != StateFailed || msg != "boom" {
		t.Fatalf("failed job = %v, %q", state, msg)
	}

	cancel := NewJob("j2", "run", "", 1)
	cancel.Finish("", context.Canceled)
	if _, state, _ := cancel.Result(); state != StateCanceled {
		t.Fatalf("canceled job = %v", state)
	}

	deadline := NewJob("j3", "run", "", 1)
	deadline.Finish("", context.DeadlineExceeded)
	if _, state, _ := deadline.Result(); state != StateCanceled {
		t.Fatalf("deadline job = %v", state)
	}
	for _, s := range []State{StateDone, StateFailed, StateCanceled} {
		if !s.Terminal() {
			t.Fatalf("%v not terminal", s)
		}
	}
	for _, s := range []State{StateQueued, StateRunning} {
		if s.Terminal() {
			t.Fatalf("%v terminal", s)
		}
	}
}

func TestEventNotifyBroadcast(t *testing.T) {
	j := NewJob("j1", "run", "", 1)
	_, more, _ := j.EventsSince(0)
	done := make(chan struct{})
	go func() {
		<-more
		close(done)
	}()
	j.Progress("wake")
	<-done
	evs, _, _ := j.EventsSince(0)
	if len(evs) != 2 {
		t.Fatalf("%d events after wake, want 2", len(evs))
	}
}

// TestTerminalEventCarriesStatus: every outcome's terminal event carries
// the job's final Status, identical to Status(), beside its usual
// fields.
func TestTerminalEventCarriesStatus(t *testing.T) {
	for _, tc := range []struct {
		err   error
		typ   string
		field string
	}{
		{nil, "done", "result_url"},
		{errors.New("boom"), "error", "error"},
		{context.Canceled, "error", "error"},
	} {
		j := NewJob("j1", "run", "t1", 1)
		j.SetState(StateRunning, "")
		j.Progress("line")
		j.Finish("csv\n", tc.err)

		evs, _, _ := j.EventsSince(0)
		last := evs[len(evs)-1]
		var payload map[string]json.RawMessage
		if err := json.Unmarshal(last.Data, &payload); err != nil {
			t.Fatal(err)
		}
		if last.Type != tc.typ || payload[tc.field] == nil || string(payload["trace"]) != `"t1"` {
			t.Fatalf("%v: terminal event %s %s", tc.err, last.Type, last.Data)
		}
		want, err := json.Marshal(j.Status())
		if err != nil {
			t.Fatal(err)
		}
		if string(payload["status"]) != string(want) {
			t.Fatalf("%v: event status %s, want %s", tc.err, payload["status"], want)
		}
		// Non-terminal events are unchanged: no status rides along.
		for _, e := range evs[:len(evs)-1] {
			if strings.Contains(string(e.Data), `"status"`) {
				t.Fatalf("non-terminal event %s carries a status: %s", e.Type, e.Data)
			}
		}
	}
}

// finish runs a submitted job to done and marks it Done, as the service
// does.
func finish(q *Queue, j *Job) {
	j.SetState(StateRunning, "")
	j.Progress("line")
	j.Finish("csv\n", nil)
	q.Done(j)
}

// TestWindowEvictsInFinishOrder: the queue keeps RetainedPerSlot × depth
// finished jobs and forgets the one that finished longest ago, so a job
// submitted first and finished last outlives every job it overlapped.
// A forgotten id reports ErrExpired; an id never issued, or not in the
// issued form, stays unknown.
func TestWindowEvictsInFinishOrder(t *testing.T) {
	const depth = 2
	w := RetainedPerSlot * depth
	q := New(depth)
	long := NewJob(q.NewID(), "batch", "", 1)
	if err := q.Submit(long); err != nil {
		t.Fatal(err)
	}
	var short []*Job
	for i := 0; i < w+3; i++ {
		j := NewJob(q.NewID(), "run", "", 1)
		if err := q.Submit(j); err != nil {
			t.Fatal(err)
		}
		finish(q, j)
		short = append(short, j)
	}
	finish(q, long)

	jobs := q.Jobs()
	if len(jobs) != w || jobs[0] != long {
		t.Fatalf("Jobs() holds %d jobs starting at %s, want %d starting at the long job", len(jobs), jobs[0].ID(), w)
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i].seq <= jobs[i-1].seq {
			t.Fatalf("Jobs() out of submission order at %d", i)
		}
	}
	// w+4 jobs finished into a window of w: the first four short ones,
	// which finished first, are gone.
	for i, j := range short {
		_, err := q.Get(j.ID())
		if expired := i < 4; expired != errors.Is(err, ErrExpired) || !expired && err != nil {
			t.Fatalf("Get(short %d) = %v, want expired %v", i, err, expired)
		}
	}
	if j, err := q.Get(long.ID()); err != nil || j != long {
		t.Fatalf("Get(long) = %v, %v", j, err)
	}
	for _, id := range []string{"j999999", "j0000001", "j0", "j-1", "x", ""} {
		if _, err := q.Get(id); err == nil || errors.Is(err, ErrExpired) || err.Error() != `unknown job "`+id+`"` {
			t.Fatalf("Get(%q) = %v, want unknown job", id, err)
		}
	}
}

// TestWindowCountsRuns: the window holds RetainedPerSlot × depth runs,
// so it keeps W one-run jobs but only W/16 sixteen-run jobs, forgetting
// them in finish order; a job larger than the whole window still stays
// while it is the newest finished one.
func TestWindowCountsRuns(t *testing.T) {
	const depth = 2
	w := RetainedPerSlot * depth
	q := New(depth)
	submit := func(runs int) *Job {
		t.Helper()
		j := NewJob(q.NewID(), "batch", "", runs)
		if err := q.Submit(j); err != nil {
			t.Fatal(err)
		}
		return j
	}
	kept := func() []*Job {
		var out []*Job
		for _, j := range q.Jobs() {
			if j.Status().State.Terminal() {
				out = append(out, j)
			}
		}
		return out
	}

	var ones []*Job
	for i := 0; i < w+2; i++ {
		j := submit(1)
		finish(q, j)
		ones = append(ones, j)
	}
	if got := kept(); len(got) != w || got[0] != ones[2] {
		t.Fatalf("after %d one-run jobs the window keeps %d starting at %s, want %d starting at %s",
			len(ones), len(got), got[0].ID(), w, ones[2].ID())
	}

	// Sixteen-run batches finished out of submission order: the window
	// forgets in finish order, and every one-run job goes first.
	var batches []*Job
	for i := 0; i < w/16+2; i++ {
		batches = append(batches, submit(16))
		if i%2 == 1 {
			finish(q, batches[i])
			finish(q, batches[i-1])
		}
	}
	got := kept()
	if len(got) != w/16 {
		t.Fatalf("after %d sixteen-run batches the window keeps %d jobs, want %d", len(batches), len(got), w/16)
	}
	// Finish order was 1, 0, 3, 2: the two that finished first are gone.
	for i, j := range batches {
		_, err := q.Get(j.ID())
		if expired := i == 0 || i == 1; expired != errors.Is(err, ErrExpired) {
			t.Fatalf("Get(batch %d) = %v, want expired %v", i, err, expired)
		}
	}
	for _, j := range ones {
		if _, err := q.Get(j.ID()); !errors.Is(err, ErrExpired) {
			t.Fatalf("Get(one-run %s) = %v, want expired", j.ID(), err)
		}
	}

	huge := submit(2 * w)
	finish(q, huge)
	if got := kept(); len(got) != 1 || got[0] != huge {
		t.Fatalf("after a %d-run job the window keeps %d jobs, want only that job", 2*w, len(got))
	}
}

// TestCountsMatchWalk: Counts returns what a walk over every accepted
// job would, in every state, and keeps counting once jobs are forgotten.
func TestCountsMatchWalk(t *testing.T) {
	q := New(4)
	walk := func() (map[string]int, uint64) {
		by := map[string]int{}
		var runs uint64
		for _, j := range q.Jobs() {
			st := j.Status()
			by[string(st.State)]++
			runs += uint64(st.RunsDone)
		}
		return by, runs
	}
	check := func(when string) {
		t.Helper()
		gotBy, gotRuns := q.Counts()
		wantBy, wantRuns := walk()
		if fmt.Sprint(gotBy) != fmt.Sprint(wantBy) || gotRuns != wantRuns {
			t.Fatalf("%s: Counts() = %v, %d; a walk gives %v, %d", when, gotBy, gotRuns, wantBy, wantRuns)
		}
	}
	check("empty")
	queued := NewJob(q.NewID(), "run", "", 1)
	running := NewJob(q.NewID(), "batch", "", 3)
	failed := NewJob(q.NewID(), "run", "", 1)
	canceled := NewJob(q.NewID(), "run", "", 1)
	for _, j := range []*Job{queued, running, failed, canceled} {
		if err := q.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	check("submitted")
	if err := q.Submit(NewJob(q.NewID(), "run", "", 1)); err != ErrFull {
		t.Fatalf("fifth submit: %v, want ErrFull", err)
	}
	check("after a rejected submit")
	running.SetState(StateRunning, "")
	running.Progress("a")
	running.Progress("b")
	failed.SetState(StateRunning, "")
	failed.Finish("", errors.New("boom"))
	q.Done(failed)
	canceled.Finish("", context.Canceled)
	q.Done(canceled)
	check("mixed states")

	// Past the window, done jobs and runs keep counting.
	n := RetainedPerSlot*4 + 5
	for i := 0; i < n; i++ {
		j := NewJob(q.NewID(), "run", "", 1)
		if err := q.Submit(j); err != nil {
			t.Fatal(err)
		}
		finish(q, j)
	}
	by, runs := q.Counts()
	if by["done"] != n || by["queued"] != 1 || by["running"] != 1 || by["failed"] != 1 || by["canceled"] != 1 || runs != uint64(n+2) {
		t.Fatalf("after %d more jobs: Counts() = %v, %d", n, by, runs)
	}
}

// TestConcurrentJobsAndReaders: jobs submitted, run and retired from
// several goroutines while others read the counters, the job list and
// single jobs. Under -race this checks every shared path of the window
// and the tally; at the end the counters hold every job and the window
// its size.
func TestConcurrentJobsAndReaders(t *testing.T) {
	const depth, workers, perWorker = 2, 4, 100
	q := New(depth * workers)
	stop := make(chan struct{})
	readers := make(chan struct{})
	go func() {
		defer close(readers)
		for {
			select {
			case <-stop:
				return
			default:
			}
			q.Counts()
			for _, j := range q.Jobs() {
				q.Get(j.ID())
				j.Status()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				j := NewJob(q.NewID(), "run", "", 1)
				if err := q.Submit(j); err != nil {
					t.Error(err)
					return
				}
				finish(q, j)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-readers
	by, runs := q.Counts()
	if by["done"] != workers*perWorker || runs != workers*perWorker || len(q.Jobs()) != RetainedPerSlot*depth*workers {
		t.Fatalf("Counts() = %v, %d and %d jobs kept after %d jobs", by, runs, len(q.Jobs()), workers*perWorker)
	}
}
