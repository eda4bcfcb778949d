package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// DefaultSeconds is the timed window of one run (BENCHMARK.json's
// run_seconds).
const DefaultSeconds = 15

// Main is the raccdbench command: it parses args, runs, and returns the
// process exit code. With -workload it runs that one workload in this
// process and prints its metrics, then the Result as one JSON line — the
// last line of stdout. Without, it runs every workload in a fresh child
// process (twice with -trace: once timed, once traced) and prints each
// metric as `workload metric value unit`.
func Main(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("raccdbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload, in this process: "+strings.Join(Workloads(), ", "))
	seed := fs.Int64("seed", 1, "seed every workload input is generated from")
	seconds := fs.Float64("seconds", DefaultSeconds, "length of each timed window in seconds")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced and a profiled run (with -workload); also add them (without)")
	short := fs.Bool("short", false, "shrink every input to smoke-test size")
	out := fs.String("out", "", "write the record of every workload as JSON to this file (without -workload)")
	workdir := fs.String("workdir", ".bench_build/work", "scratch directory; everything a run creates in it is removed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "raccdbench: unexpected arguments; see -h")
		return 2
	}
	opts := Options{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Short: *short, WorkDir: *workdir}
	if *workload == "" {
		if err := runAll(ctx, opts, *out, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "raccdbench:", err)
			return 1
		}
		return 0
	}
	res, err := Run(ctx, opts)
	if err != nil {
		fmt.Fprintln(stderr, "raccdbench:", err)
		return 1
	}
	for _, f := range res.Failures {
		fmt.Fprintln(stderr, "raccdbench: failed operation:", f)
	}
	printMetrics(stdout, opts.Workload, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "raccdbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// printMetrics prints one `workload metric value unit` line per metric,
// in catalogue order.
func printMetrics(w io.Writer, workload string, res Result) {
	for _, defs := range [][]Def{EndToEnd, PerLayer} {
		for _, d := range defs {
			m, ok := res.Metrics[d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%s %s %s %s", workload, d.Name, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
			if strings.HasPrefix(d.Name, "latency_") {
				fmt.Fprintf(w, " (n=%d)", res.Attempted)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "%s correct=%v attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
	if res.HostFactor > 0 { // known in the process that ran the workload
		fmt.Fprintf(w, " host_factor=%.3f", res.HostFactor)
	}
	fmt.Fprintln(w)
}

// record is the -out JSON document.
type record struct {
	Seed      int64                `json:"seed"`
	Seconds   float64              `json:"seconds"`
	Workloads map[string]runRecord `json:"workloads"`
}

type runRecord struct {
	EndToEnd *Result `json:"end_to_end,omitempty"`
	PerLayer *Result `json:"per_layer,omitempty"`
}

// runAll runs every workload in fresh child processes of this executable.
func runAll(ctx context.Context, opts Options, out string, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	doc := record{Seed: opts.Seed, Seconds: opts.Seconds, Workloads: map[string]runRecord{}}
	var failed []string
	for _, w := range Workloads() {
		var rr runRecord
		for _, traced := range []bool{false, true} {
			if traced && !opts.Trace {
				continue
			}
			res, err := runChild(ctx, exe, w, traced, opts, stderr)
			if err != nil {
				return fmt.Errorf("%s: %w", w, err)
			}
			printMetrics(stdout, w, res)
			if !res.Correct {
				failed = append(failed, w)
			}
			if traced {
				rr.PerLayer = &res
			} else {
				rr.EndToEnd = &res
			}
		}
		doc.Workloads[w] = rr
	}
	if out != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("operations failed on %s", strings.Join(failed, ", "))
	}
	return nil
}

// runChild runs one workload in a child process and decodes the Result
// from the last line of its output.
func runChild(ctx context.Context, exe, workload string, traced bool, opts Options, stderr io.Writer) (Result, error) {
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(opts.Seed, 10),
		"-seconds", strconv.FormatFloat(opts.Seconds, 'g', -1, 64), "-workdir", opts.WorkDir, "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
	}
	if opts.Short {
		args = append(args, "-short")
	}
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return Result{}, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res Result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return Result{}, errors.New("child printed no result")
	}
	return res, nil
}
