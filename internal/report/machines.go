package report

import (
	"context"
	"fmt"
	"strings"

	"raccd/internal/coherence"
	"raccd/internal/machine"
)

// MachineSet pairs one machine with the result set of running a matrix on
// it — one element of a cross-machine sweep.
type MachineSet struct {
	Machine machine.Machine
	Set     *Set
}

// RunMachines runs the matrix once per machine and returns the result sets
// in machine order. An empty machine list runs the matrix's own Machine.
func (m Matrix) RunMachines(machines []machine.Machine) ([]MachineSet, error) {
	return m.RunMachinesContext(context.Background(), machines) //raccd:ctxlog-ok public no-ctx convenience wrapper over RunMachinesContext
}

// RunMachinesContext is RunMachines with cancellation. Progress lines are
// prefixed with the machine name so interleaved output stays attributable.
func (m Matrix) RunMachinesContext(ctx context.Context, machines []machine.Machine) ([]MachineSet, error) {
	if len(machines) == 0 {
		machines = []machine.Machine{m.Machine}
	}
	out := make([]MachineSet, 0, len(machines))
	for _, mc := range machines {
		mm := m
		mm.Machine = mc
		if m.Progress != nil {
			name := mc.Name()
			mm.Progress = func(msg string) { m.Progress(name + " " + msg) }
		}
		set, err := mm.RunContext(ctx)
		if err != nil {
			return nil, fmt.Errorf("report: machine %s: %w", mc.Name(), err)
		}
		out = append(out, MachineSet{Machine: mc, Set: set})
	}
	return out, nil
}

// Fig2AcrossMachines renders the Fig 2 metric — the fraction of blocks
// never accessed coherently under PT and RaCCD — side by side for every
// machine of a cross-machine sweep, one PT and one RaCCD column per
// machine. The paper reports the 16-core point; the other columns show how
// the deactivation opportunity moves as the machine grows.
func Fig2AcrossMachines(sets []MachineSet) string {
	systems := []coherence.Mode{coherence.PT, coherence.RaCCD}
	type column struct {
		label string
		set   *Set
		sys   coherence.Mode
	}
	var cols []column
	for _, ms := range sets {
		for _, sys := range systems {
			cols = append(cols, column{
				label: fmt.Sprintf("%s %v", ms.Machine.Name(), sys),
				set:   ms.Set,
				sys:   sys,
			})
		}
	}
	width := 10
	for _, c := range cols {
		if len(c.label)+2 > width {
			width = len(c.label) + 2
		}
	}
	// Row order: union of workloads in first-appearance order.
	var rows []string
	seen := map[string]bool{}
	for _, ms := range sets {
		for _, w := range ms.Set.Workloads() {
			if !seen[w] {
				seen[w] = true
				rows = append(rows, w)
			}
		}
	}
	var b strings.Builder
	b.WriteString("Fig 2 across machines: non-coherent cache blocks (fraction)\n")
	fmt.Fprintf(&b, "%-10s", "")
	for _, c := range cols {
		fmt.Fprintf(&b, "%*s", width, c.label)
	}
	b.WriteByte('\n')
	sums := make([]float64, len(cols))
	counts := make([]int, len(cols))
	for _, w := range rows {
		fmt.Fprintf(&b, "%-10s", w)
		for ci, c := range cols {
			r, ok := c.set.Get(w, c.sys, 1, false)
			if !ok {
				fmt.Fprintf(&b, "%*s", width, "-")
				continue
			}
			fmt.Fprintf(&b, "%*.3f", width, r.NCFraction)
			sums[ci] += r.NCFraction
			counts[ci]++
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-10s", "Average")
	for ci := range cols {
		if counts[ci] == 0 {
			fmt.Fprintf(&b, "%*s", width, "-")
			continue
		}
		fmt.Fprintf(&b, "%*.3f", width, sums[ci]/float64(counts[ci]))
	}
	b.WriteString("\n(paper reports the 16-core point: averages 0.269 PT, 0.786 RaCCD)\n")
	return b.String()
}
