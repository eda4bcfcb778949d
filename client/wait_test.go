package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// fakeDaemon serves one job's event stream (writing frames) and its
// status (the polled states in order, the last repeating), counting the
// status polls.
func fakeDaemon(t *testing.T, frames string, polled ...string) (*Client, *atomic.Int64) {
	t.Helper()
	var polls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/j1/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, frames)
	})
	mux.HandleFunc("GET /v1/jobs/j1", func(w http.ResponseWriter, r *http.Request) {
		i := int(polls.Add(1)) - 1
		if i >= len(polled) {
			i = len(polled) - 1
		}
		fmt.Fprintf(w, `{"id":"j1","kind":"run","state":%q,"error":"polled"}`, polled[i])
	})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return New(hs.URL), &polls
}

const queuedFrame = "id: 0\nevent: status\ndata: {\"state\":\"queued\"}\n\n"

// TestWaitTakesStatusFromTerminalEvent: a terminal event carrying the
// final status ends Wait without a status poll, failed jobs included.
func TestWaitTakesStatusFromTerminalEvent(t *testing.T) {
	c, polls := fakeDaemon(t, queuedFrame+
		"id: 1\nevent: error\ndata: {\"error\":\"boom\",\"status\":{\"id\":\"j1\",\"kind\":\"run\",\"state\":\"failed\",\"error\":\"boom\",\"runs_total\":1}}\n\n",
		"running")
	var seen int
	st, err := c.Wait(context.Background(), "j1", func(Event) { seen++ })
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "failed" || st.Error != "boom" || st.RunsTotal != 1 {
		t.Fatalf("status = %+v, want the stream's failed status", st)
	}
	if polls.Load() != 0 || seen != 2 {
		t.Fatalf("%d polls and %d events, want 0 and 2", polls.Load(), seen)
	}
}

// TestWaitPollsWithoutStreamStatus: a terminal event without a status
// (an older daemon) makes Wait fall back to GET /v1/jobs/{id}.
func TestWaitPollsWithoutStreamStatus(t *testing.T) {
	c, polls := fakeDaemon(t, queuedFrame+
		"id: 1\nevent: done\ndata: {\"result_url\":\"/v1/jobs/j1/result\"}\n\n",
		"done")
	st, err := c.Wait(context.Background(), "j1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Error != "polled" || polls.Load() != 1 {
		t.Fatalf("status = %+v after %d polls, want the polled done status after 1", st, polls.Load())
	}
}

// TestWaitPollsAfterDroppedStream: a stream that ends mid-job makes
// Wait poll until the job is terminal.
func TestWaitPollsAfterDroppedStream(t *testing.T) {
	c, polls := fakeDaemon(t, queuedFrame, "running", "failed")
	st, err := c.Wait(context.Background(), "j1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "failed" || st.Error != "polled" || polls.Load() != 2 {
		t.Fatalf("status = %+v after %d polls, want the polled failed status after 2", st, polls.Load())
	}
}

// TestWaitPollReportsExpiry: when the stream drops and the daemon has
// forgotten the job by the time Wait polls, Wait returns the 404 as an
// error that matches ErrExpired; a plain 404 does not match it.
func TestWaitPollReportsExpiry(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/j1/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, queuedFrame)
	})
	mux.HandleFunc("GET /v1/jobs/j1", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":"job \"j1\" expired: resubmit","expired":true}`)
	})
	mux.HandleFunc("GET /v1/jobs/j2", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":"unknown job \"j2\""}`)
	})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	c := New(hs.URL)

	_, err := c.Wait(context.Background(), "j1", nil)
	var apiErr *APIError
	if !errors.Is(err, ErrExpired) || !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound || !apiErr.Expired {
		t.Fatalf("Wait on an expired job: err = %#v, want a 404 matching ErrExpired", err)
	}
	if _, err := c.Job(context.Background(), "j2"); err == nil || errors.Is(err, ErrExpired) {
		t.Fatalf("unknown job: err = %v, want a 404 that does not match ErrExpired", err)
	}
}
