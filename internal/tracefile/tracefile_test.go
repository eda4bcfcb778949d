package tracefile_test

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"raccd/internal/coherence"
	"raccd/internal/mem"
	"raccd/internal/rts"
	"raccd/internal/sim"
	"raccd/internal/tracefile"
	"raccd/internal/workloads"
	"raccd/internal/workloads/synth"
)

// allBenchmarks is the paper's nine plus Cholesky.
func allBenchmarks() []string {
	return append(workloads.PaperSet(), "Cholesky")
}

// recordBoth records w with Record and with the reference recorder and
// encoder, and fails unless the two wrote the same bytes.
func recordBoth(t *testing.T, w tracefile.Builder, fingerprint uint64) (*tracefile.Trace, *refTrace) {
	t.Helper()
	tr, err := tracefile.Record(w, fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refRecord(w, fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := refEncode(&want, ref, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, tr), want.Bytes()) {
		t.Fatalf("%s: Record wrote different bytes from the reference encoder", w.Name())
	}
	return tr, ref
}

// TestRecordReplayAllBenchmarks is the round-trip fidelity pin: every
// bundled benchmark, recorded to RTF bytes and decoded back, must produce
// identical simulation results to the native build, with full golden-memory
// and invariant validation on. Record must write the reference encoder's
// bytes, and the decoded trace must hold the reference's tasks and ops.
func TestRecordReplayAllBenchmarks(t *testing.T) {
	cfg := sim.DefaultConfig(coherence.RaCCD, 16)
	for _, name := range allBenchmarks() {
		name := name
		t.Run(name, func(t *testing.T) {
			w := workloads.MustGet(name, 0.04)
			tr, ref := recordBoth(t, w, tracefile.Fingerprint(name+"/0.04"))
			dec, err := tracefile.Decode(bytes.NewReader(encode(t, tr)))
			if err != nil {
				t.Fatal(err)
			}
			sameAsReference(t, dec, ref)
			if h := dec.Header(); h.Name != name || h.Fingerprint != tr.Header().Fingerprint {
				t.Fatalf("header mangled: %+v", h)
			}

			native, err := sim.Run(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			replay, err := sim.Run(dec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			compareResults(t, native, replay)
		})
	}
}

// Every synth preset, at two scales, records to the reference's bytes.
func TestRecordSynthMatchesReference(t *testing.T) {
	for _, preset := range synth.Presets() {
		for _, scale := range []float64{0.1, 0.25} {
			w, err := workloads.Get(synth.Prefix+preset+"/unannotated=0.25", scale)
			if err != nil {
				t.Fatal(err)
			}
			recordBoth(t, w, tracefile.Fingerprint(w.Name()))
		}
	}
}

// compareResults checks every externally observable metric.
func compareResults(t *testing.T, a, b sim.Result) {
	t.Helper()
	type metrics struct {
		Workload                                         string
		Cycles, DirAccesses, NoCByteHops                 uint64
		LLCHitRatio, DirEnergy, DirOccupancy, NCFraction float64
		L1HitRatio                                       float64
		L1Writebacks, MemReads, MemWrites                uint64
		TasksRun, GraphEdges                             uint64
	}
	ma := metrics{a.Workload, a.Cycles, a.DirAccesses, a.NoCByteHops, a.LLCHitRatio, a.DirEnergy,
		a.DirOccupancy, a.NCFraction, a.L1HitRatio, a.L1Writebacks, a.MemReads, a.MemWrites, a.TasksRun, a.GraphEdges}
	mb := metrics{b.Workload, b.Cycles, b.DirAccesses, b.NoCByteHops, b.LLCHitRatio, b.DirEnergy,
		b.DirOccupancy, b.NCFraction, b.L1HitRatio, b.L1Writebacks, b.MemReads, b.MemWrites, b.TasksRun, b.GraphEdges}
	if ma != mb {
		t.Fatalf("replay diverged from native run:\nnative: %+v\nreplay: %+v", ma, mb)
	}
}

// One trace replays from many goroutines at once, each run equal to a
// run of its own: a task body keeps no state between runs, and Build
// hands every graph the same decoded deps. Run it under -race.
func TestConcurrentReplay(t *testing.T) {
	tr, err := tracefile.Record(workloads.MustGet("Jacobi", 0.04), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(coherence.PT, 16)
	want, err := sim.Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]sim.Result, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = sim.Run(tr, cfg)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		compareResults(t, want, got[i])
	}
}

// Recording is deterministic: two recordings of the same workload encode
// to identical bytes.
func TestRecordDeterministic(t *testing.T) {
	enc := func() []byte {
		tr, err := tracefile.Record(workloads.MustGet("Histo", 0.05), 7)
		if err != nil {
			t.Fatal(err)
		}
		return encode(t, tr)
	}
	if !bytes.Equal(enc(), enc()) {
		t.Fatal("two recordings of the same workload produced different bytes")
	}
}

// smallTrace records a producer and a consumer of one 256-byte range.
func smallTrace(t *testing.T) *tracefile.Trace {
	t.Helper()
	r := mem.Range{Start: 0x1000_0000, Size: 256}
	w := workloads.New("tiny", func(g *rts.Graph) {
		g.Add("produce", []rts.Dep{{Range: r, Mode: rts.Out}}, func(ctx *rts.Ctx) {
			ctx.Store(r.Start)
			ctx.Store(r.Start + mem.BlockSize)
			ctx.Compute(99)
		})
		g.Add("consume", []rts.Dep{{Range: r, Mode: rts.In}}, func(ctx *rts.Ctx) {
			ctx.Load(r.Start)
		})
	})
	tr, err := tracefile.Record(w, 42)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// Record checks every record against the format's bounds as it writes
// it: a workload the format cannot carry is an error, not a file.
func TestEncoderErrors(t *testing.T) {
	one := func(name string, deps []rts.Dep, body rts.Kernel) workloads.Workload {
		return workloads.New("n", func(g *rts.Graph) { g.Add(name, deps, body) })
	}
	store := func(a mem.Addr) rts.Kernel { return func(ctx *rts.Ctx) { ctx.Store(a) } }
	cases := []struct {
		name string
		w    workloads.Workload
		want string
	}{
		{"dep past the address bound", one("t", []rts.Dep{{Range: mem.Range{Start: tracefile.MaxAddr, Size: 64}}}, nil), "address bound"},
		{"store past the block bound", one("t", nil, store((tracefile.MaxBlock + 1).Addr())), "block bound"},
		{"invalid mode", one("t", []rts.Dep{{Range: mem.Range{Start: 0, Size: 64}, Mode: 9}}, nil), "mode"},
		{"compute past its bound", one("t", nil, func(ctx *rts.Ctx) { ctx.Compute(tracefile.MaxComputeCycles + 1) }), "compute cycles"},
		{"task name too long", one(strings.Repeat("x", 1<<16+1), nil, nil), "limit"},
		{"workload name too long", workloads.New(strings.Repeat("x", 1<<16+1), func(*rts.Graph) {}), "limit"},
	}
	for _, tc := range cases {
		if _, err := tracefile.Record(tc.w, 0); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

// corrupt returns a copy of b with byte i xored.
func corrupt(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x40
	return out
}

// oneTask returns a checksummed RTF file whose header (workload "x",
// fingerprint 0) declares one task with the given record bytes.
func oneTask(record ...byte) []byte {
	return withChecksum(append([]byte{'R', 'T', 'F', '1', 1, 1, 'x', 0, 1}, record...))
}

func TestDecoderErrors(t *testing.T) {
	valid := encode(t, smallTrace(t))

	check := func(name string, data []byte, want string) {
		t.Helper()
		_, err := tracefile.Decode(bytes.NewReader(data))
		if err == nil {
			t.Fatalf("%s: decode succeeded", name)
		}
		if want != "" && !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error %q does not mention %q", name, err, want)
		}
	}

	check("empty", nil, "magic")
	check("bad magic", corrupt(valid, 0), "magic")
	check("bad version", corrupt(valid, 4), "version")
	check("truncated", valid[:len(valid)-9], "")
	check("checksum flipped", corrupt(valid, len(valid)-1), "checksum")
	check("body flipped", corrupt(valid, len(valid)-12), "")
	check("trailing data", append(append([]byte(nil), valid...), 0), "trailing")

	// A header claiming a huge task count backed by no data errors without
	// allocating for the claim, and so does a plausible claim the records
	// do not back.
	huge := []byte{'R', 'T', 'F', '1', 1, 1, 'x', 0}
	huge = append(huge, binary.AppendUvarint(nil, 1<<40)...)
	check("implausible task count", withChecksum(huge), "implausible")
	check("task count past the records", withChecksum(append(huge[:8], 5)), "")

	// Each bound of a task record, in a file whose checksum holds.
	load := func(block int64) []byte { return binary.AppendUvarint(nil, uint64(block)<<3) } // zigzag, kind 0
	check("invalid mode", oneTask(1, 't', 1, 9, 0, 64, 0), "mode")
	check("invalid kind", oneTask(1, 't', 0, 1, 3), "kind")
	check("dep past the address bound",
		oneTask(append(append([]byte{1, 't', 1, 0}, binary.AppendVarint(nil, int64(tracefile.MaxAddr))...), 64, 0)...), "address bound")
	check("block past the block bound", oneTask(append([]byte{1, 't', 0, 1}, load(int64(tracefile.MaxBlock)+1)...)...), "block bound")
	check("negative block", oneTask(1, 't', 0, 1, 1<<2|0), "block bound") // zigzag(-1) = 1
	check("compute past its bound",
		oneTask(append([]byte{1, 't', 0, 1}, binary.AppendUvarint(nil, (tracefile.MaxComputeCycles+1)<<2|2)...)...), "compute cycles")
	check("task name too long", oneTask(binary.AppendUvarint(nil, 1<<16+1)...), "limit")
}

// withChecksum appends the FNV-1a trailer the decoder expects.
func withChecksum(body []byte) []byte {
	h := fnv.New64a()
	h.Write(body)
	return binary.LittleEndian.AppendUint64(append([]byte(nil), body...), h.Sum64())
}

// Validate checks what decoding cannot: the dependence footprint and the
// replayed graph. Per-record bounds are Parse's (TestDecoderErrors).
func TestValidate(t *testing.T) {
	if err := smallTrace(t).Validate(); err != nil {
		t.Fatal(err)
	}
	// 2^31 bytes of deps is within the address bound but 2^25 blocks,
	// past what Validate tracks: it must refuse before building the graph.
	huge := &refTrace{
		Header: tracefile.Header{Name: "huge"},
		Tasks:  []refTask{{Name: "t", Deps: []rts.Dep{{Range: mem.Range{Size: 1 << 31}, Mode: rts.Out}}}},
	}
	var buf bytes.Buffer
	if err := refEncode(&buf, huge, nil); err != nil {
		t.Fatal(err)
	}
	tr, err := tracefile.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "too large to validate") {
		t.Fatalf("oversized dependence footprint: err = %v", err)
	}
}

func TestSummarize(t *testing.T) {
	s := smallTrace(t).Summarize(true)
	want := tracefile.Stats{Tasks: 2, Deps: 2, Loads: 1, Stores: 2, Compute: 99, Edges: 1}
	if s != want {
		t.Fatalf("Summarize = %+v, want %+v", s, want)
	}
}

func TestFingerprintStable(t *testing.T) {
	if tracefile.Fingerprint("a") == tracefile.Fingerprint("b") {
		t.Fatal("distinct strings should fingerprint differently")
	}
	if tracefile.Fingerprint("chain/seed=1") != tracefile.Fingerprint("chain/seed=1") {
		t.Fatal("fingerprint must be stable")
	}
}

// A decoded trace encodes to the bytes it was decoded from: Record's
// canonical bytes, and equally a file with overlong varints, which
// replays as its canonical twin does.
func TestCanonicalReencode(t *testing.T) {
	tr, ref := recordBoth(t, workloads.MustGet("Jacobi", 0.04), 1)
	first := encode(t, tr)
	dec, err := tracefile.Decode(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, dec), first) {
		t.Fatal("re-encoding a decoded trace changed the bytes")
	}

	rng := rand.New(rand.NewSource(1))
	var padded bytes.Buffer
	if err := refEncode(&padded, ref, func() bool { return rng.Intn(3) == 0 }); err != nil {
		t.Fatal(err)
	}
	if padded.Len() <= len(first) {
		t.Fatal("no varint was padded")
	}
	pdec, err := tracefile.Decode(bytes.NewReader(padded.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, pdec), padded.Bytes()) {
		t.Fatal("re-encoding a padded trace changed its bytes")
	}
	sameAsReference(t, pdec, ref)
	cfg := sim.DefaultConfig(coherence.RaCCD, 16)
	a, err := sim.Run(dec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Run(pdec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, a, b)
}

// WriteFile writes the trace's bytes, and ReadFile reads its header
// back.
func TestReadHeader(t *testing.T) {
	w := workloads.MustGet("Jacobi", 0.04)
	tr, err := tracefile.Record(w, tracefile.Fingerprint("Jacobi@0.04"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "j.rtf")
	if err := tracefile.WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := tracefile.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr := got.Header()
	if hdr.Name != "Jacobi" || hdr.Fingerprint != tr.Header().Fingerprint || hdr.Tasks != tr.Summarize(false).Tasks {
		t.Fatalf("header = %+v, want name/fingerprint/tasks of the written trace", hdr)
	}
	if !bytes.Equal(encode(t, got), encode(t, tr)) {
		t.Fatal("the file does not hold the recorded bytes")
	}
	if _, err := tracefile.ReadFile(filepath.Join(t.TempDir(), "missing.rtf")); err == nil {
		t.Fatal("missing file must error")
	}
}
