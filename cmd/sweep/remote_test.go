package main

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"raccd/internal/report"
	"raccd/internal/resultstore"
	"raccd/internal/service"
	"raccd/internal/tracefile"
	"raccd/internal/workloads"
)

// startDaemon boots an in-process raccdd service over httptest — a
// coordinator when workers are given — and returns its base URL.
func startDaemon(t *testing.T, workers ...string) (string, *service.Server) {
	t.Helper()
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := service.New(service.Options{Store: store, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return hs.URL, s
}

// TestRemoteSweepMatchesLocal pins the -remote contract: the same figure
// sweep submitted as one batch renders byte-identical figures and CSV to
// a local run. Behind a coordinator the simulations split across both
// workers and none run on the coordinator; a plain daemon is the
// one-worker case and simulates every run itself. The trace subtests
// sweep a recorded trace alone, whose rows carry the name in its header
// rather than the matrix's "trace:<path>".
func TestRemoteSweepMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	read := func(p string) string {
		t.Helper()
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	fig2 := report.DefaultMatrix()
	fig2.Ratios = []int{1}
	fig2.ADR = false

	// matchLocal sweeps args locally, then behind a coordinator and on a
	// plain daemon, and expects the fleet to simulate runs runs. split
	// asks that both workers get some: only a matrix with runs enough
	// for rendezvous hashing to spread them.
	matchLocal := func(t *testing.T, args []string, runs uint64, split bool) {
		localCSV := filepath.Join(t.TempDir(), "local.csv")
		code, localOut, stderr := runSweep(t, append(args, "-jobs", "2", "-csv", localCSV)...)
		if code != 0 {
			t.Fatalf("local: exit %d, stderr: %s", code, stderr)
		}
		remoteSweep := func(t *testing.T, url string) {
			t.Helper()
			remoteCSV := filepath.Join(t.TempDir(), "remote.csv")
			code, remoteOut, stderr := runSweep(t, append(args, "-remote", url, "-csv", remoteCSV)...)
			if code != 0 {
				t.Fatalf("remote: exit %d, stderr: %s", code, stderr)
			}
			if remoteOut != localOut {
				t.Errorf("remote figure output differs from local:\n--- local ---\n%s\n--- remote ---\n%s", localOut, remoteOut)
			}
			if read(remoteCSV) != read(localCSV) {
				t.Error("remote CSV differs from local CSV")
			}
		}

		t.Run("coordinator", func(t *testing.T) {
			w1, s1 := startDaemon(t)
			w2, s2 := startDaemon(t)
			coord, c := startDaemon(t, w1, w2)
			remoteSweep(t, coord)
			var total uint64
			for i, s := range []*service.Server{s1, s2} {
				st := s.Stats()
				if split && st.SimsRun == 0 {
					t.Errorf("worker %d simulated nothing (degenerate partition)", i)
				}
				total += st.SimsRun
			}
			if total != runs {
				t.Errorf("workers simulated %d runs, want %d (the fig 2 matrix)", total, runs)
			}
			if n := c.Stats().SimsRun; n != 0 {
				t.Errorf("coordinator simulated %d runs itself, want 0", n)
			}
		})

		t.Run("daemon", func(t *testing.T) {
			url, s := startDaemon(t)
			remoteSweep(t, url)
			if n := s.Stats().SimsRun; n != runs {
				t.Errorf("daemon simulated %d runs, want %d (the fig 2 matrix)", n, runs)
			}
		})
	}

	matchLocal(t, []string{"-fig", "2", "-scale", "0.05", "-q"}, uint64(fig2.NumRuns()), true)

	t.Run("trace", func(t *testing.T) {
		jac := filepath.Join(t.TempDir(), "jac.rtf")
		tr, err := tracefile.Record(workloads.MustGet("Jacobi", 0.05), tracefile.Fingerprint("Jacobi"))
		if err != nil {
			t.Fatal(err)
		}
		if err := tracefile.WriteFile(jac, tr); err != nil {
			t.Fatal(err)
		}
		matchLocal(t, []string{"-fig", "2", "-only-extra", "-trace", jac, "-scale", "0.05", "-q"},
			uint64(len(fig2.Systems)), false)
	})
}

// TestRemoteFlagConflicts: matrix variants that need in-process hooks,
// and endpoint lists, are rejected up front rather than failing
// mid-sweep.
func TestRemoteFlagConflicts(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-remote", "http://x", "-machines", "paper16,m32"}, "-machines"},
		{[]string{"-remote", "http://x", "-fig", "vc"}, "NCRT"},
		{[]string{"-remote", "http://x", "-cache", "/tmp/c"}, "-cache"},
		{[]string{"-remote", "http://a,http://b", "-fig", "2"}, "raccdd -workers"},
	} {
		code, _, stderr := runSweep(t, tc.args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: stderr %q missing %q", tc.args, stderr, tc.want)
		}
	}
}

// TestRemoteUnreachableEndpointFails: a dead endpoint fails the sweep
// with a diagnostic naming it, after the client's retry budget.
func TestRemoteUnreachableEndpointFails(t *testing.T) {
	hs := httptest.NewServer(nil)
	url := hs.URL
	hs.Close() // nothing listens here any more
	code, _, stderr := runSweep(t, "-fig", "2", "-scale", "0.05", "-q", "-remote", url)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr, url) {
		t.Fatalf("stderr does not name the dead endpoint: %q", stderr)
	}
}
