package queue

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
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
	j, ok := q.Get(ids[1])
	if !ok || j.ID() != ids[1] {
		t.Fatalf("Get(%s) = %v, %v", ids[1], j, ok)
	}
	if _, ok := q.Get("j999999"); ok {
		t.Fatal("Get of unknown id succeeded")
	}
}

func TestQueueFullAndClosed(t *testing.T) {
	q := New(1)
	if err := q.Submit(NewJob(q.NewID(), "run", "", 1)); err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(NewJob(q.NewID(), "run", "", 1)); err != ErrFull {
		t.Fatalf("overflow submit err = %v, want ErrFull", err)
	}
	// A finished job frees its place.
	q.Done()
	if err := q.Submit(NewJob(q.NewID(), "run", "", 1)); err != nil {
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
	// The job accepted before Close still counts until it is Done, and
	// Wait returns once it is.
	if q.Depth() != 1 {
		t.Fatalf("depth after close = %d, want the 1 unfinished job", q.Depth())
	}
	q.Done()
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
