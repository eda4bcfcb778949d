// Command raccdreport compares two archived sweep result files (written by
// `sweep -csv`), reporting metric changes beyond a tolerance and runs
// present in only one file — a regression gate for changes to the
// simulator or the workloads.
//
//	sweep -q -csv before.csv
//	... hack hack hack ...
//	sweep -q -csv after.csv
//	raccdreport -old before.csv -new after.csv -tol 0.02
//
// Exit status 1 when differences beyond tolerance, or runs in only one
// file, exist.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"raccd/internal/report"
)

// run parses args and performs the comparison, writing the diff to stdout
// and diagnostics to stderr. It returns the process exit code: 0 when the
// sweeps match within tolerance, 1 when differences exist, 2 on usage or
// input errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("raccdreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		oldPath = fs.String("old", "", "baseline CSV (required)")
		newPath = fs.String("new", "", "candidate CSV (required)")
		tol     = fs.Float64("tol", 0.01, "relative tolerance before a change is reported")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(stderr, "raccdreport: -old and -new are required")
		fs.Usage()
		return 2
	}
	load := func(path string) (*report.Set, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		set, err := report.ParseCSV(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return set, nil
	}
	oldSet, err := load(*oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "raccdreport:", err)
		return 2
	}
	newSet, err := load(*newPath)
	if err != nil {
		fmt.Fprintln(stderr, "raccdreport:", err)
		return 2
	}
	diffs := report.Diff(oldSet, newSet, *tol)
	fmt.Fprint(stdout, report.FormatDiff(diffs))
	if len(diffs) > 0 {
		return 1
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
