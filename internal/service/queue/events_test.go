package queue

import (
	"context"
	"errors"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	// goldenTime and goldenPhases match the parts of a payload that
	// change from run to run: a status's timestamps and its phases.
	goldenTime   = regexp.MustCompile(`"(created|started|finished)":"[^"]*"`)
	goldenPhases = regexp.MustCompile(`,"phases":\{[^}]*\}`)
)

// TestEventPayloadsGolden: every event type's payload encodes to the
// bytes the service has always written, with and without a trace ID.
// testdata/events.golden holds the payloads the map-based encoder wrote,
// one per line, with timestamps and phases masked. Each job runs queued →
// running → one progress line → committed → finished: done, failed with
// a message that needs escaping, failed with an empty message, and
// canceled.
func TestEventPayloadsGolden(t *testing.T) {
	var got strings.Builder
	for _, trace := range []string{"", "t-0123"} {
		for _, end := range []error{nil, errors.New(`boom <x> & "y"`), errors.New(""), context.Canceled} {
			q := New(4)
			j := NewJob(q.NewID(), "batch", trace, 2)
			if err := q.Submit(j); err != nil {
				t.Fatal(err)
			}
			j.SetState(StateRunning, "")
			j.Progress(`MD5,PT,1,<a&b> "q"`)
			j.Commit()
			j.Finish("csv\n", end)
			q.Done(j)
			evs, _, _ := j.EventsSince(0)
			for _, e := range evs {
				data := goldenTime.ReplaceAllString(string(e.Data), `"$1":"<time>"`)
				got.WriteString(goldenPhases.ReplaceAllString(data, "") + "\n")
			}
		}
	}
	want, err := os.ReadFile("testdata/events.golden")
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d payload lines, want %d:\n%s", len(gotLines), len(wantLines), got.String())
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("payload %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
