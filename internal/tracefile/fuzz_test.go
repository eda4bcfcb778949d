package tracefile_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"raccd/internal/mem"
	"raccd/internal/rts"
	"raccd/internal/tracefile"
	"raccd/internal/workloads"
)

// checkDecode is the body of FuzzDecode and of TestDecodeSeeded. For any
// input, Decode must return an error exactly when the reference decoder
// does, and never panic. An accepted input must decode to the reference's
// header, task names, deps and op stream; Encode must write it back
// byte for byte, overlong varints included; and replaying it (Build, then
// every task body) must issue the reference's accesses and compute. The
// replay runs only when the trace's dependence footprint is small, since
// building a graph tracks every page its deps name. It reports whether
// the input was accepted.
func checkDecode(t testing.TB, data []byte) bool {
	t.Helper()
	tr, err := tracefile.Decode(bytes.NewReader(data))
	ref, refErr := refDecode(bytes.NewReader(data))
	if (err == nil) != (refErr == nil) {
		t.Fatalf("Decode error %v, reference decoder error %v", err, refErr)
	}
	if err != nil {
		return false
	}
	sameAsReference(t, tr, ref)
	var out bytes.Buffer
	if err := tracefile.Encode(&out, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("Encode of a decoded trace changed its bytes")
	}
	var blocks uint64
	for _, task := range ref.Tasks {
		for _, d := range task.Deps {
			blocks += d.Range.NumBlocks()
		}
	}
	if blocks <= 1<<16 {
		replaysAsReference(t, tr, ref)
	}
	return true
}

// sameAsReference checks a parsed trace against the reference decoder's
// model of the same bytes: header, task names and deps, the op stream
// EachOp walks, and Summarize's counts.
func sameAsReference(t testing.TB, tr *tracefile.Trace, ref *refTrace) {
	t.Helper()
	if tr.Header() != ref.Header || len(ref.Tasks) != ref.Header.Tasks {
		t.Fatalf("header %+v, reference %+v with %d tasks", tr.Header(), ref.Header, len(ref.Tasks))
	}
	ops := make([][]tracefile.Op, len(ref.Tasks))
	tr.EachOp(func(i int, op tracefile.Op) { ops[i] = append(ops[i], op) })
	var want tracefile.Stats
	want.Tasks = len(ref.Tasks)
	for i, rt := range ref.Tasks {
		name, deps := tracefile.TaskOf(tr, i)
		if name != rt.Name || !slices.Equal(deps, rt.Deps) {
			t.Fatalf("task %d: %q %v, reference %q %v", i, name, deps, rt.Name, rt.Deps)
		}
		if !slices.Equal(ops[i], rt.Ops) {
			t.Fatalf("task %d (%s): ops %v, reference %v", i, name, ops[i], rt.Ops)
		}
		want.Deps += len(rt.Deps)
		for _, op := range rt.Ops {
			switch op.Kind {
			case tracefile.OpLoad:
				want.Loads++
			case tracefile.OpStore:
				want.Stores++
			case tracefile.OpCompute:
				want.Compute += op.Cycles
			}
		}
	}
	if got := tr.Summarize(false); got != want {
		t.Fatalf("Summarize = %+v, reference counts %+v", got, want)
	}
}

// accessLog is a machine that logs every access a task body issues.
type accessLog struct{ ops []tracefile.Op }

func (m *accessLog) Access(_ int, va mem.Addr, write bool, _ uint64) uint64 {
	k := tracefile.OpLoad
	if write {
		k = tracefile.OpStore
	}
	m.ops = append(m.ops, tracefile.Op{Kind: k, Block: mem.BlockOf(va)})
	return 0
}

func (m *accessLog) RegisterRegion(int, mem.Range) uint64 { return 0 }
func (m *accessLog) InvalidateNC(int) uint64              { return 0 }

// replaysAsReference builds tr and runs every task body: each task must
// carry the reference's name and deps, and issue its loads and stores in
// order plus its compute total.
func replaysAsReference(t testing.TB, tr *tracefile.Trace, ref *refTrace) {
	t.Helper()
	g := rts.NewGraph()
	tr.Build(g)
	if g.NumTasks() != len(ref.Tasks) {
		t.Fatalf("built %d tasks, reference has %d", g.NumTasks(), len(ref.Tasks))
	}
	var log accessLog
	for i, task := range g.Tasks() {
		rt := ref.Tasks[i]
		if task.Name != rt.Name || !slices.Equal(task.Deps, rt.Deps) {
			t.Fatalf("built task %d: %q %v, reference %q %v", i, task.Name, task.Deps, rt.Name, rt.Deps)
		}
		var want []tracefile.Op
		var compute uint64
		for _, op := range rt.Ops {
			if op.Kind == tracefile.OpCompute {
				compute += op.Cycles
			} else {
				want = append(want, op)
			}
		}
		log.ops = log.ops[:0]
		ctx := rts.NewCtx(0, task, &log)
		task.Body(ctx)
		if !slices.Equal(log.ops, want) || ctx.Cycles() != compute {
			t.Fatalf("task %d (%s) replayed %v and %d cycles, reference %v and %d",
				i, rt.Name, log.ops, ctx.Cycles(), want, compute)
		}
	}
}

// fuzzSeeds are the generated seeds of FuzzDecode: an empty trace, a tiny
// synthetic workload, and truncated, shifted and corrupted copies of it.
func fuzzSeeds(t testing.TB) [][]byte {
	empty, err := tracefile.Record(workloads.New("empty", func(*rts.Graph) {}), 0)
	if err != nil {
		t.Fatal(err)
	}
	valid := record(t, "synth:chain/width=2/depth=3/blocks=2", 1)
	mangled := append([]byte(nil), valid...)
	mangled[len(mangled)/2] ^= 0xFF
	return [][]byte{
		encode(t, empty),
		valid,
		valid[:len(valid)/2],
		append([]byte(nil), valid[4:]...),
		mangled,
		[]byte("RTF1"),
		{},
	}
}

// record returns the RTF bytes Record writes for workload name at scale.
func record(t testing.TB, name string, scale float64) []byte {
	t.Helper()
	w, err := workloads.Get(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracefile.Record(w, tracefile.Fingerprint(name))
	if err != nil {
		t.Fatal(err)
	}
	return encode(t, tr)
}

func encode(t testing.TB, tr *tracefile.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tracefile.Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecode hammers the RTF decoder with arbitrary bytes through
// checkDecode. The seed corpus is testdata/fuzz/FuzzDecode (a recorded
// benchmark, a synthetic trace, an empty trace and broken variants) plus
// fuzzSeeds, freshly generated so the corpus tracks format changes.
// TestDecodeSeeded runs the same body over a fixed set of mutations on
// every go test; -fuzz only widens the search.
func FuzzDecode(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkDecode(t, data) })
}

// corpus returns the inputs of the checked-in FuzzDecode seed corpus.
func corpus(t testing.TB) [][]byte {
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecode", "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no checked-in corpus: %v", err)
	}
	var out [][]byte
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		lit, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
		if !ok || len(lines) != 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a one-value go fuzz corpus file", p)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out = append(out, []byte(s))
	}
	return out
}

// TestDecodeSeeded runs checkDecode, FuzzDecode's body, over the
// checked-in corpus, the generated seeds and a fixed seeded set of
// mutations of freshly recorded traces: bit flips, truncations, inserted
// bytes and overlong (padded) varints. Half the mutants get a fresh
// checksum, so they reach the record parser rather than stopping at the
// checksum. This is the tier-1 run of the decoder fuzzer.
func TestDecodeSeeded(t *testing.T) {
	inputs := append(corpus(t), fuzzSeeds(t)...)
	for _, in := range inputs {
		checkDecode(t, in)
	}
	var fresh []*refTrace
	for _, w := range []struct {
		name  string
		scale float64
	}{
		{"synth:chain/width=2/depth=3/blocks=2", 1},
		{"synth:mixed/seed=3/width=3/depth=3/blocks=3/shared=8", 1},
		{"synth:stencil/width=3/depth=2/blocks=2/unannotated=0.5", 1},
		{"synth:forkjoin/width=3/depth=2/blocks=2", 1},
		{"JPEG", 0.005},
	} {
		ref, err := refDecode(bytes.NewReader(record(t, w.name, w.scale)))
		if err != nil {
			t.Fatal(err)
		}
		fresh = append(fresh, ref)
	}
	rng := rand.New(rand.NewSource(1))
	pad := func() bool { return rng.Intn(4) == 0 }
	const mutations = 12000
	accepted := 0
	for i := 0; i < mutations; i++ {
		ref := fresh[rng.Intn(len(fresh))]
		var buf bytes.Buffer
		if err := refEncode(&buf, ref, pad); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		switch rng.Intn(4) {
		case 0: // the padded varints alone
		case 1:
			for n := 1 + rng.Intn(3); n > 0; n-- {
				data[rng.Intn(len(data))] ^= 1 << rng.Intn(8)
			}
		case 2:
			data = data[:rng.Intn(len(data))]
		case 3:
			at := rng.Intn(len(data) + 1)
			ins := make([]byte, 1+rng.Intn(4))
			rng.Read(ins)
			data = slices.Insert(data, at, ins...)
		}
		if len(data) >= 8 && rng.Intn(2) == 0 {
			data = withChecksum(data[:len(data)-8])
		}
		if checkDecode(t, data) {
			accepted++
		}
	}
	t.Logf("%d inputs, %d mutants, %d of them accepted", len(inputs), mutations, accepted)
	if accepted < mutations/8 {
		t.Fatalf("only %d of %d mutants decoded: the set no longer reaches the replay", accepted, mutations)
	}
}
