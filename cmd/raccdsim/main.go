// Command raccdsim runs benchmarks under one system configuration and
// prints every collected metric.
//
// Usage:
//
//	raccdsim -bench Jacobi -system raccd -ratio 64 [-adr] [-scale 1.0]
//	         [-sched fifo|lifo|locality] [-ncrt-latency 1] [-writethrough]
//	         [-contiguity 1.0] [-machine paper16|m32|m64]
//	raccdsim -bench Jacobi -machine m64     # 64 cores on an 8×8 mesh
//	raccdsim -bench Jacobi,MD5,CG -jobs 3   # several benchmarks, in parallel
//	raccdsim -bench all                     # every bundled benchmark
//	raccdsim -trace run.rtf                 # replay a recorded RTF trace
//	raccdsim -synth chain/seed=7            # a seeded synthetic task graph
//
// -system takes fullcoh, pt, pt-ro (or ptro) or raccd, in any case.
// -ncrt-latency takes a whole number of cycles, at least 1; -contiguity
// takes a fraction in (0, 1]; -scale takes a finite non-negative factor.
//
// With more than one benchmark the runs fan out across -jobs workers
// (default: one per CPU) and results print in the order the benchmarks
// were named. Ctrl-C cancels cleanly.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"raccd"
	"raccd/internal/runner"          //raccd:layering-ok multi-bench -jobs fan-out uses the deterministic in-order worker pool, which has no public mirror
	"raccd/internal/workloads/synth" //raccd:layering-ok -synth canonicalizes spec strings for run labels before simulation
)

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("raccdsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench       = fs.String("bench", "", "benchmark name(s), comma-separated, or \"all\" (see -list); default Jacobi")
		tracePaths  = fs.String("trace", "", "RTF trace file(s) to replay, comma-separated (see cmd/raccdtrace)")
		synthSpecs  = fs.String("synth", "", "synthetic workload spec(s), comma-separated: preset[/key=val]...")
		system      = fs.String("system", "raccd", "system: fullcoh, pt, pt-ro (or ptro), raccd; any case")
		machineName = fs.String("machine", "", "machine preset: paper16 (default), m32, m64, or a power-of-two core count")
		ratio       = fs.Int("ratio", 1, "directory reduction 1:N (1,2,4,8,16,64,256)")
		adr         = fs.Bool("adr", false, "enable adaptive directory reduction")
		scale       = fs.Float64("scale", 1.0, "problem scale (1.0 = Table II ÷ 16)")
		sched       = fs.String("sched", "fifo", "scheduler: fifo, lifo, locality")
		ncrtLatency = fs.Uint64("ncrt-latency", 1, "NCRT lookup latency in cycles, at least 1")
		wt          = fs.Bool("writethrough", false, "write-through private caches")
		contiguity  = fs.Float64("contiguity", 1.0, "physical page contiguity in (0, 1]")
		novalidate  = fs.Bool("novalidate", false, "skip golden-memory validation")
		smt         = fs.Int("smt", 1, "hardware threads per core (SMT ways)")
		coreModel   = fs.String("core", "", "core timing model: simple (default) or ooo")
		prefetch    = fs.Int("prefetch", 0, "delta prefetcher degree (blocks per trained trigger; 0 = off)")
		prefetchDst = fs.Int("prefetch-distance", 0, "prefetcher look-ahead in strides (0 = default 4; needs -prefetch)")
		jobs        = fs.Int("jobs", 0, "concurrent runs when several benchmarks are named (0 = one per CPU)")
		asJSON      = fs.Bool("json", false, "emit the result as JSON")
		list        = fs.Bool("list", false, "list benchmarks and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, strings.Join(raccd.Benchmarks(), "\n"))
		return 0
	}

	sys, err := raccd.ParseSystem(*system)
	if err != nil {
		fmt.Fprintln(stderr, "raccdsim:", err)
		return 2
	}
	// The library reads a zero NCRT latency or contiguity as "keep the
	// default", so an explicit 0 here would silently simulate the
	// opposite of what was asked.
	if *ncrtLatency == 0 {
		fmt.Fprintln(stderr, "raccdsim: -ncrt-latency must be at least 1 cycle (0 would select the default, 1)")
		return 2
	}
	if *contiguity == 0 {
		fmt.Fprintln(stderr, "raccdsim: -contiguity must be in (0, 1] (0 would select the default, 1)")
		return 2
	}

	var names []string
	if strings.EqualFold(*bench, "all") {
		names = raccd.Benchmarks()
	} else {
		for _, n := range strings.Split(*bench, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	for _, p := range strings.Split(*tracePaths, ",") {
		if p = strings.TrimSpace(p); p != "" {
			names = append(names, "trace:"+p)
		}
	}
	for _, s := range strings.Split(*synthSpecs, ",") {
		if s = strings.TrimSpace(s); s != "" {
			names = append(names, synth.Canonical(s))
		}
	}
	if len(names) == 0 {
		names = []string{"Jacobi"}
	}
	workloads := make([]raccd.Workload, len(names))
	for i, n := range names {
		w, err := raccd.NewWorkload(n, *scale)
		if err != nil {
			fmt.Fprintln(stderr, "raccdsim:", err)
			return 2
		}
		workloads[i] = w
	}

	mach, err := raccd.ParseMachine(*machineName)
	if err != nil {
		fmt.Fprintln(stderr, "raccdsim:", err)
		return 2
	}

	cfg := raccd.DefaultConfig(sys, *ratio)
	cfg.Machine = mach.WithTiming(*coreModel, *prefetch, *prefetchDst)
	cfg.ADR = *adr
	cfg.Scheduler = *sched
	cfg.NCRTLatency = *ncrtLatency
	cfg.WriteThrough = *wt
	cfg.Contiguity = *contiguity
	cfg.Validate = !*novalidate
	cfg.SMTWays = *smt
	// Reject impossible configurations before any simulation runs.
	if err := cfg.Check(); err != nil {
		fmt.Fprintln(stderr, "raccdsim:", err)
		return 2
	}

	var enc *json.Encoder
	if *asJSON {
		enc = json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
	}

	var failed int
	err = runner.Run(ctx, *jobs, len(names),
		func(runCtx context.Context, i int) (raccd.Result, error) {
			// RunContext: Ctrl-C aborts even a single long simulation at
			// its next task dispatch instead of running it to completion.
			res, err := raccd.RunContext(runCtx, workloads[i], cfg)
			if err != nil {
				return raccd.Result{}, fmt.Errorf("%s: %w", names[i], err)
			}
			return res, nil
		},
		func(i int, res raccd.Result) {
			if enc != nil {
				if err := enc.Encode(res); err != nil {
					fmt.Fprintln(stderr, "raccdsim:", err)
					failed++
				}
				return
			}
			if i > 0 {
				fmt.Fprintln(stdout)
			}
			printResult(stdout, res, cfg.Machine, *scale, *sched, !*novalidate)
		})
	if err != nil {
		fmt.Fprintln(stderr, "raccdsim:", err)
		return 1
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// printResult renders one run in the traditional human-readable form.
func printResult(w io.Writer, res raccd.Result, mach raccd.Machine, scale float64, sched string, validated bool) {
	fmt.Fprintf(w, "benchmark        %s (scale %.2f)\n", res.Workload, scale)
	fmt.Fprintf(w, "machine          %s\n", mach)
	fmt.Fprintf(w, "system           %v  directory 1:%d  ADR %v  scheduler %s\n", res.System, res.DirRatio, res.ADR, sched)
	fmt.Fprintf(w, "tasks            %d (%d dependence edges)\n", res.TasksRun, res.GraphEdges)
	fmt.Fprintf(w, "cycles           %d\n", res.Cycles)
	fmt.Fprintf(w, "dir accesses     %d\n", res.DirAccesses)
	fmt.Fprintf(w, "dir occupancy    %.1f%% (access-weighted average)\n", res.DirOccupancy*100)
	fmt.Fprintf(w, "dir size         %.1f KB", res.DirKB)
	if res.ADR {
		fmt.Fprintf(w, " (final; %d reconfigurations)", res.ADRReconfigs)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "dir energy       %.1f (model units)\n", res.DirEnergy)
	fmt.Fprintf(w, "L1 hit ratio     %.1f%%\n", res.L1HitRatio*100)
	fmt.Fprintf(w, "LLC hit ratio    %.1f%%\n", res.LLCHitRatio*100)
	fmt.Fprintf(w, "NoC traffic      %d byte-hops (energy %.1f)\n", res.NoCByteHops, res.NoCEnergy)
	fmt.Fprintf(w, "memory           %d reads, %d writes\n", res.MemReads, res.MemWrites)
	fmt.Fprintf(w, "non-coherent     %.1f%% of touched blocks (Fig 2 metric)\n", res.NCFraction*100)
	if res.PrefetchIssued > 0 {
		fmt.Fprintf(w, "prefetches       %d issued, %d useful, %d late\n", res.PrefetchIssued, res.PrefetchUseful, res.PrefetchLate)
		fmt.Fprintf(w, "pf coverage      %.1f%% of would-be demand misses\n", res.PrefetchCoverage*100)
	}
	if validated {
		fmt.Fprintln(w, "validation       OK (protocol invariants + golden final memory)")
	}
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		// First signal: cancel; in-flight runs stop at their next task
		// dispatch. Second signal: default handling, i.e. die now.
		<-ctx.Done()
		stop()
	}()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}
