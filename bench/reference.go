package bench

import (
	"embed"
	"fmt"
	"strings"

	"raccd/internal/report"
	"raccd/internal/sim"
)

// The reference outputs every operation is checked against, regenerated
// with `go test -run TestReferenceOutputs -update` (see README.md).
//
//go:embed testdata/*.csv
var testdata embed.FS

const (
	refFig2Scale1 = "fig2_scale1.csv"
	refFig2Small  = "fig2_scale0.25.csv"
	refM64Seed1   = "m64_seed1.csv"
)

// reference indexes a report CSV by run: row key → the whole row.
type reference map[string]string

func loadReference(name string) (reference, error) {
	data, err := testdata.ReadFile("testdata/" + name)
	if err != nil {
		return nil, fmt.Errorf("bench: reference %s: %w", name, err)
	}
	return parseRows(string(data))
}

// csvHeader is the first line of every report CSV.
var csvHeader = strings.SplitN(report.NewSet(nil).CSV(), "\n", 2)[0]

// parseRows indexes the rows of a report CSV by rowKey.
func parseRows(csv string) (reference, error) {
	lines := strings.Split(strings.TrimSuffix(csv, "\n"), "\n")
	if len(lines) == 0 || lines[0] != csvHeader {
		return nil, fmt.Errorf("bench: not a report CSV (header %q)", lines[0])
	}
	out := make(reference, len(lines)-1)
	for _, row := range lines[1:] {
		k := rowKey(row)
		if _, dup := out[k]; dup {
			return nil, fmt.Errorf("bench: CSV repeats run %s", k)
		}
		out[k] = row
	}
	return out, nil
}

// rowKey returns a CSV row's identity columns: workload, system, ratio
// and ADR — the key report.Set indexes results by.
func rowKey(row string) string {
	n := 0
	for i := 0; i < len(row); i++ {
		if row[i] == ',' {
			if n++; n == 4 {
				return row[:i]
			}
		}
	}
	return row
}

// resultRow renders one result as its report CSV row.
func resultRow(r sim.Result) string {
	csv := report.NewSet([]sim.Result{r}).CSV()
	return strings.TrimSuffix(csv[len(csvHeader)+1:], "\n")
}

// check reports whether row matches the reference row of its run. A run
// the reference does not hold is an error too.
func (ref reference) check(row string) error {
	want, ok := ref[rowKey(row)]
	switch {
	case !ok:
		return fmt.Errorf("no reference output for run %s", rowKey(row))
	case row != want:
		return fmt.Errorf("run %s: output\n  %s\nwant\n  %s", rowKey(row), row, want)
	}
	return nil
}

// checkCSV checks that csv is a report CSV of exactly n runs, each
// matching the reference.
func (ref reference) checkCSV(csv string, n int) error {
	rows, err := parseRows(csv)
	if err != nil {
		return err
	}
	if len(rows) != n {
		return fmt.Errorf("CSV has %d runs, want %d", len(rows), n)
	}
	for _, row := range rows {
		if err := ref.check(row); err != nil {
			return err
		}
	}
	return nil
}
