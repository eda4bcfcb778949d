package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"regexp"
	"sync"
	"testing"
	"time"
)

func TestLoggerJSONLines(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, slog.LevelInfo)
	l.Info("hello", "trace", "abc", "n", 3)
	l.Debug("dropped below level")

	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 1 {
		t.Fatalf("want 1 line, got %d: %q", len(lines), buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal(lines[0], &rec); err != nil {
		t.Fatalf("line is not JSON: %v", err)
	}
	if rec["msg"] != "hello" || rec["trace"] != "abc" || rec["n"] != 3.0 {
		t.Fatalf("unexpected record: %v", rec)
	}
}

func TestNopLogger(t *testing.T) {
	// Must not panic and must report disabled at every level.
	l := Nop()
	l.Error("ignored", "k", "v")
	if l.Enabled(context.Background(), slog.LevelError) {
		t.Fatal("nop logger claims to be enabled")
	}
}

func TestContextCarriage(t *testing.T) {
	ctx := context.Background()
	if Log(ctx) == nil || Trace(ctx) != "" || PhasesFrom(ctx) != nil {
		t.Fatal("empty context should yield nop logger, empty trace, nil phases")
	}

	var buf bytes.Buffer
	l := NewLogger(&buf, slog.LevelInfo)
	p := &Phases{}
	ctx = WithLogger(ctx, l)
	ctx = WithTrace(ctx, "t123")
	ctx = WithPhases(ctx, p)

	if Log(ctx) != l {
		t.Fatal("logger did not round-trip")
	}
	if Trace(ctx) != "t123" {
		t.Fatalf("trace = %q", Trace(ctx))
	}
	if PhasesFrom(ctx) != p {
		t.Fatal("phases did not round-trip")
	}
}

func TestNewTraceID(t *testing.T) {
	hex16 := regexp.MustCompile(`^[0-9a-f]{16}$`)
	a, b := NewTraceID(), NewTraceID()
	if !hex16.MatchString(a) || !hex16.MatchString(b) {
		t.Fatalf("malformed trace IDs: %q %q", a, b)
	}
	if a == b {
		t.Fatalf("trace IDs collided: %q", a)
	}
}

func TestPhasesNilSafe(t *testing.T) {
	var p *Phases
	p.Add("x", time.Second) // must not panic
	p.Start("x")()
	p.Begin(time.Now(), time.Now())
	p.Waited(time.Now())
	p.Ran()
	p.Committed(time.Now())
	p.Each(func(string, time.Duration) { t.Fatal("nil phases have no buckets") })
	if p.Seconds() != nil {
		t.Fatal("nil phases should snapshot to nil")
	}
}

// TestPhasesCountFromBeginAndRan: queue_wait runs from the job's
// creation to Begin; the job's first Waited adds the time since Begin
// and every later one the time since its own start; store gains the
// time from the latest Ran to Committed, and nothing before a Ran.
func TestPhasesCountFromBeginAndRan(t *testing.T) {
	p := &Phases{}
	p.Committed(time.Now())
	if s := p.Seconds(); s != nil {
		t.Fatalf("phases after Committed before Ran = %v, want none", s)
	}
	began := time.Now()
	p.Begin(began.Add(-time.Second), began)
	time.Sleep(2 * time.Millisecond)
	p.Waited(time.Now().Add(-time.Hour)) // the first wait counts from Begin
	if w := p.Seconds()[PhaseQueueWait]; w < 1.002 || w > 1.5 {
		t.Fatalf("queue_wait = %vs, want 1s before Begin plus the 2ms after it", w)
	}
	p.Waited(time.Now().Add(-time.Second / 2))
	if w := p.Seconds()[PhaseQueueWait]; w < 1.502 || w > 2 {
		t.Fatalf("queue_wait = %vs, want a later wait to add its own 0.5s", w)
	}
	p.Ran()
	ran := time.Now()
	p.Committed(ran.Add(time.Second))
	if st := p.Seconds()[PhaseStore]; st < 1 || st > 1.5 {
		t.Fatalf("store = %vs, want the 1s from Ran to Committed", st)
	}
}

func TestPhasesAccumulate(t *testing.T) {
	p := &Phases{}
	p.Add("exec", 200*time.Millisecond)
	p.Add("exec", 300*time.Millisecond)
	p.Add("store", 50*time.Millisecond)
	p.Add("store", -time.Hour) // clock step: ignored

	s := p.Seconds()
	if len(s) != 2 {
		t.Fatalf("want 2 buckets, got %v", s)
	}
	if got := s["exec"]; got < 0.499 || got > 0.501 {
		t.Fatalf("exec = %v, want 0.5", got)
	}
	if got := s["store"]; got < 0.049 || got > 0.051 {
		t.Fatalf("store = %v, want 0.05", got)
	}

	// Snapshots are copies: mutating one must not affect the source.
	s["exec"] = 0
	if p.Seconds()["exec"] != 0.5 {
		t.Fatal("Seconds returned a live reference")
	}
}

func TestPhasesStart(t *testing.T) {
	p := &Phases{}
	stop := p.Start("exec")
	time.Sleep(5 * time.Millisecond)
	stop()
	if got := p.Seconds()["exec"]; got < 0.005 {
		t.Fatalf("timed phase too short: %v", got)
	}
}

func TestPhasesConcurrent(t *testing.T) {
	p := &Phases{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				p.Add("exec", time.Microsecond)
			}
		}()
	}
	wg.Wait()
	var got time.Duration
	p.Each(func(name string, d time.Duration) { got += d })
	if got != 8000*time.Microsecond {
		t.Fatalf("lost updates: %v", got)
	}
}

// TestPhasesFixedBuckets: the zero value is ready, a bucket timed at
// zero is still reported while untouched ones are not, and a name
// outside the canonical set panics at the call site.
func TestPhasesFixedBuckets(t *testing.T) {
	var p Phases
	if p.Seconds() != nil {
		t.Fatal("fresh phases should snapshot to nil")
	}
	p.Add(PhaseStore, 0)
	p.Add(PhaseFabric, time.Millisecond)
	s := p.Seconds()
	if len(s) != 2 || s[PhaseStore] != 0 || s[PhaseFabric] != 0.001 {
		t.Fatalf("Seconds = %v, want store 0 and fabric_rtt 0.001 only", s)
	}
	for name, call := range map[string]func(){
		"Add":   func() { p.Add("exec_ms", time.Second) },
		"Start": func() { p.Start("exec_ms") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with an unknown phase did not panic", name)
				}
			}()
			call()
		}()
	}
}
