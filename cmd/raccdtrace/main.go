// Command raccdtrace creates, inspects and checks RTF workload traces
// (see docs/TRACE_FORMAT.md).
//
// Usage:
//
//	raccdtrace record -bench Jacobi -scale 1.0 -o jacobi.rtf
//	raccdtrace synth -spec chain/seed=7/unannotated=0.25 -o chain.rtf
//	raccdtrace synth -list
//	raccdtrace info [-deltas 8] file.rtf ...
//	raccdtrace validate file.rtf ...
//
// record serializes any resolvable workload — a bundled benchmark, a
// synth: spec or even another trace: file — into a replayable RTF file.
// synth is shorthand for recording a synthetic preset. info prints the
// header and content summary; -deltas N adds the top-N block-stride delta
// histogram with the prefetcher trainer's predicted coverage (see
// raccdsim -prefetch). validate fully decodes the file, verifies
// the checksum and checks that the replayed task graph is a well-formed
// DAG.
//
// A trace runs under any configuration via raccdsim -trace file.rtf (or
// -bench trace:file.rtf anywhere a benchmark name is accepted).
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"raccd/internal/cpu"             //raccd:layering-ok info -deltas reuses the prefetcher's delta trainer for trace profiling
	"raccd/internal/tracefile"       //raccd:layering-ok raccdtrace IS the RTF tooling; encode/decode/validate have no public mirror beyond Read/WriteTrace
	"raccd/internal/workloads"       //raccd:layering-ok record resolves bench names and scales through the registry
	"raccd/internal/workloads/synth" //raccd:layering-ok synth subcommand parses/canonicalizes generator specs

	"flag"
)

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  raccdtrace record -bench <name> [-scale S] [-o file.rtf]
  raccdtrace synth -spec <preset[/key=val]...> [-scale S] [-o file.rtf] | -list
  raccdtrace info [-deltas N] <file.rtf>...
  raccdtrace validate <file.rtf>...
`)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "record":
		return runRecord(ctx, args[1:], stdout, stderr)
	case "synth":
		return runSynth(ctx, args[1:], stdout, stderr)
	case "info":
		return runInfo(ctx, args[1:], stdout, stderr)
	case "validate":
		return runValidate(ctx, args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "raccdtrace: unknown subcommand %q\n", args[0])
		usage(stderr)
		return 2
	}
}

// record resolves a workload name (benchmark, synth: spec or trace: file)
// and serializes it.
func runRecord(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("raccdtrace record", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench = fs.String("bench", "", "workload to record: benchmark name, synth:<spec> or trace:<path>")
		scale = fs.Float64("scale", 1.0, "problem scale (1.0 = Table II ÷ 16)")
		out   = fs.String("o", "", "output path (default <name>.rtf)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *bench == "" {
		fmt.Fprintln(stderr, "raccdtrace record: -bench is required")
		return 2
	}
	return record(ctx, *bench, *scale, *out, stdout, stderr)
}

// synth is record for synthetic presets, plus -list.
func runSynth(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("raccdtrace synth", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		spec  = fs.String("spec", "", "synthetic spec: preset[/key=val]... (see -list)")
		scale = fs.Float64("scale", 1.0, "problem scale applied to the preset's depth")
		out   = fs.String("o", "", "output path (default derived from the spec)")
		list  = fs.Bool("list", false, "list presets with their default parameters and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, preset := range synth.Presets() {
			p, _ := synth.Default(preset)
			fmt.Fprintf(stdout, "%-10s width=%d depth=%d blocks=%d shared=%d compute=%d\n",
				preset, p.Width, p.Depth, p.BlocksPerTask, p.SharedBlocks, p.ComputePerBlock)
		}
		return 0
	}
	if *spec == "" {
		fmt.Fprintln(stderr, "raccdtrace synth: -spec is required (or -list)")
		return 2
	}
	return record(ctx, synth.Canonical(*spec), *scale, *out, stdout, stderr)
}

func record(ctx context.Context, name string, scale float64, out string, stdout, stderr io.Writer) int {
	w, err := workloads.Get(name, scale)
	if err != nil {
		fmt.Fprintln(stderr, "raccdtrace:", err)
		return 1
	}
	if err := ctx.Err(); err != nil {
		fmt.Fprintln(stderr, "raccdtrace:", err)
		return 1
	}
	fp := tracefile.Fingerprint(fmt.Sprintf("%s@scale=%g", w.Name(), scale))
	tr, err := tracefile.Record(w, fp)
	if err != nil {
		fmt.Fprintln(stderr, "raccdtrace:", err)
		return 1
	}
	if out == "" {
		out = pathSafe(w.Name()) + ".rtf"
	}
	// Interrupted between the (possibly long) capture and the write:
	// exit without leaving a file behind.
	if err := ctx.Err(); err != nil {
		fmt.Fprintln(stderr, "raccdtrace:", err)
		return 1
	}
	if err := tracefile.WriteFile(out, tr); err != nil {
		fmt.Fprintln(stderr, "raccdtrace:", err)
		return 1
	}
	s := tr.Summarize(false)
	fmt.Fprintf(stdout, "%s: %d tasks, %d deps, %d loads, %d stores -> %s\n",
		w.Name(), s.Tasks, s.Deps, s.Loads, s.Stores, out)
	return 0
}

// pathSafe turns a workload name into a usable file stem.
func pathSafe(name string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '/', ':', '=', ' ':
			return '_'
		}
		return r
	}, name)
}

func runInfo(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("raccdtrace info", flag.ContinueOnError)
	fs.SetOutput(stderr)
	deltas := fs.Int("deltas", 0, "print the N most frequent block-stride deltas and the trainer's predicted prefetch coverage")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "raccdtrace info: no files named")
		return 2
	}
	code := 0
	for _, path := range fs.Args() {
		if err := ctx.Err(); err != nil {
			fmt.Fprintln(stderr, "raccdtrace:", err)
			return 1
		}
		tr, err := tracefile.ReadFile(path)
		if err != nil {
			fmt.Fprintln(stderr, "raccdtrace:", err)
			code = 1
			continue
		}
		st, _ := os.Stat(path)
		s := tr.Summarize(true)
		fmt.Fprintf(stdout, "%s:\n", path)
		fmt.Fprintf(stdout, "  workload     %s\n", tr.Name())
		hdr := tr.Header()
		fmt.Fprintf(stdout, "  version      %d\n", hdr.Version)
		fmt.Fprintf(stdout, "  fingerprint  %#016x\n", hdr.Fingerprint)
		if st != nil {
			fmt.Fprintf(stdout, "  file size    %d bytes\n", st.Size())
		}
		fmt.Fprintf(stdout, "  tasks        %d (%d dependence edges)\n", s.Tasks, s.Edges)
		fmt.Fprintf(stdout, "  deps         %d annotations\n", s.Deps)
		fmt.Fprintf(stdout, "  accesses     %d loads, %d stores\n", s.Loads, s.Stores)
		fmt.Fprintf(stdout, "  compute      %d cycles\n", s.Compute)
		if *deltas > 0 {
			printDeltas(stdout, tr, *deltas)
		}
	}
	return code
}

// printDeltas runs the prefetcher's delta trainer over the trace's access
// stream (tasks in file order, ops in issue order — the same order a
// sequential replay would present) and prints the top-N delta histogram
// plus the trainer's predicted coverage, so prefetch knobs can be sized
// offline before any sweep.
func printDeltas(w io.Writer, tr *tracefile.Trace, n int) {
	p := cpu.NewDeltaProfile()
	tr.EachOp(func(_ int, op tracefile.Op) {
		if op.Kind != tracefile.OpCompute {
			p.Observe(op.Block.Addr())
		}
	})
	fmt.Fprintf(w, "  deltas       %d stride observations over %d accesses, predicted coverage %.1f%%\n",
		p.Strides(), p.Observations(), p.PredictedCoverage()*100)
	top := p.Top(n)
	if len(top) == 0 {
		fmt.Fprintln(w, "               (no nonzero block strides)")
		return
	}
	for _, d := range top {
		pct := 0.0
		if p.Strides() > 0 {
			pct = float64(d.Count) / float64(p.Strides()) * 100
		}
		fmt.Fprintf(w, "               %+6d blocks  %8d  (%.1f%%)\n", d.Delta, d.Count, pct)
	}
}

func runValidate(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "raccdtrace validate: no files named")
		return 2
	}
	code := 0
	for _, path := range args {
		if err := ctx.Err(); err != nil {
			fmt.Fprintln(stderr, "raccdtrace:", err)
			return 1
		}
		tr, err := tracefile.ReadFile(path)
		if err == nil {
			err = tr.Validate()
		}
		if err != nil {
			fmt.Fprintf(stdout, "%s: INVALID: %v\n", path, err)
			code = 1
			continue
		}
		fmt.Fprintf(stdout, "%s: OK (%s, %d tasks, checksum verified)\n", path, tr.Name(), tr.Header().Tasks)
	}
	return code
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		// First signal: cancel between stages/files (a recording is
		// never left half-written). Second signal: default handling.
		<-ctx.Done()
		stop()
	}()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}
