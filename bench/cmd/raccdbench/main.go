// Command raccdbench runs the repository's benchmark (package raccd/bench):
//
//	go run ./cmd/raccdbench -seed 1            # every workload, end to end
//	go run ./cmd/raccdbench -seed 1 -trace 1   # plus the per-layer metrics
//	go run ./cmd/raccdbench -workload serve-warm -seed 3 -seconds 15 -trace 0
//
// run from the bench directory. See bench/README.md.
package main

import (
	"context"
	"os"
	"os/signal"
	"syscall"

	"raccd/bench"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM) //raccd:ctxlog-ok the process's root context
	code := bench.Main(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}
