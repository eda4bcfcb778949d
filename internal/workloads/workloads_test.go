package workloads

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"raccd/internal/mem"
	"raccd/internal/rts"
	"raccd/internal/tracefile"
)

const testScale = 0.1

func build(t *testing.T, name string) *rts.Graph {
	t.Helper()
	w := MustGet(name, testScale)
	g := rts.NewGraph()
	w.Build(g)
	if err := g.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return g
}

func TestRegistryComplete(t *testing.T) {
	if len(PaperSet()) != 9 {
		t.Fatalf("paper set has %d benchmarks, want 9", len(PaperSet()))
	}
	for _, n := range PaperSet() {
		if _, err := Get(n, testScale); err != nil {
			t.Errorf("paper benchmark %s missing: %v", n, err)
		}
	}
	if _, err := Get("Cholesky", testScale); err != nil {
		t.Errorf("Cholesky missing: %v", err)
	}
	if _, err := Get("nope", 1); err == nil {
		t.Error("unknown name did not error")
	}
	if len(Names()) != 10 {
		t.Errorf("Names() returned %d, want 10", len(Names()))
	}
}

func TestAllWorkloadsBuildNonTrivialGraphs(t *testing.T) {
	for _, n := range Names() {
		g := build(t, n)
		if g.NumTasks() < 10 {
			t.Errorf("%s: only %d tasks", n, g.NumTasks())
		}
	}
}

func TestArenaPageAligned(t *testing.T) {
	a := NewArena()
	r1 := a.Alloc(100)
	r2 := a.Alloc(100)
	if r1.Start%mem.PageSize != 0 || r2.Start%mem.PageSize != 0 {
		t.Fatal("allocations not page aligned")
	}
	if r1.Overlaps(r2) {
		t.Fatal("allocations overlap")
	}
}

func TestChunksCoverExactly(t *testing.T) {
	r := mem.Range{Start: 0x1000, Size: 64*100 + 32}
	cs := Chunks(r, 7)
	if cs[0].Start != r.Start {
		t.Fatal("first chunk start wrong")
	}
	if cs[len(cs)-1].End() != r.End() {
		t.Fatal("last chunk end wrong")
	}
	var total uint64
	for i, c := range cs {
		total += c.Size
		if i > 0 && c.Start != cs[i-1].End() {
			t.Fatal("chunks not contiguous")
		}
		if i < len(cs)-1 && c.Start%mem.BlockSize != 0 {
			t.Fatal("chunk not block aligned")
		}
	}
	if total != r.Size {
		t.Fatalf("chunks cover %d bytes, want %d", total, r.Size)
	}
}

func TestChunksMoreThanBlocks(t *testing.T) {
	r := mem.Range{Start: 0, Size: 3 * 64}
	cs := Chunks(r, 10)
	if len(cs) != 3 {
		t.Fatalf("got %d chunks for 3 blocks, want 3", len(cs))
	}
}

func TestJacobiStructure(t *testing.T) {
	g := build(t, "Jacobi")
	if g.NumTasks() != 10*16 {
		t.Fatalf("Jacobi tasks = %d, want 160", g.NumTasks())
	}
	// First-iteration tasks are roots; later iterations depend on earlier.
	if len(g.Roots()) != 16 {
		t.Fatalf("Jacobi roots = %d, want 16", len(g.Roots()))
	}
	if g.CriticalPathLen() < 10 {
		t.Fatalf("Jacobi critical path %d < iterations", g.CriticalPathLen())
	}
}

func TestGaussWavefront(t *testing.T) {
	g := build(t, "Gauss")
	// In-place Gauss-Seidel with halo-row deps: only ONE root (chunk 0 of
	// iteration 0 has no one above it... chunk c depends on chunk c-1's
	// first-iteration update via the wavefront, and on nothing else), and
	// a critical path longer than iterations + chunks.
	if g.CriticalPathLen() < 10+15 {
		t.Fatalf("Gauss critical path %d, want >= 25 (wavefront)", g.CriticalPathLen())
	}
}

func TestJPEGHasNoAnnotations(t *testing.T) {
	g := build(t, "JPEG")
	if g.NumEdges() != 0 {
		t.Fatalf("JPEG has %d edges, want 0 (unannotated tasks)", g.NumEdges())
	}
	for _, tk := range g.Tasks() {
		if len(tk.Deps) != 0 {
			t.Fatalf("JPEG task %v has deps", tk)
		}
	}
}

func TestMD5TasksIndependent(t *testing.T) {
	g := build(t, "MD5")
	if g.NumEdges() != 0 {
		t.Fatalf("MD5 has %d edges, want 0 (disjoint buffers)", g.NumEdges())
	}
	for _, tk := range g.Tasks() {
		if len(tk.Deps) != 2 {
			t.Fatalf("MD5 task has %d deps, want 2 (buffer in, digest out)", len(tk.Deps))
		}
	}
}

func TestCholeskyTaskCount(t *testing.T) {
	// At scale 0.1, nt clamps to 3: count = Σ_j [gemm j(j-1)... ] for
	// nt=3: gemm(1)+syrk(3)+potrf(3)+trsm(3) = 10.
	g := build(t, "Cholesky")
	if g.NumTasks() != 10 {
		t.Fatalf("Cholesky nt=3 tasks = %d, want 10", g.NumTasks())
	}
	names := map[string]int{}
	for _, tk := range g.Tasks() {
		names[strings.Split(tk.Name, "[")[0]]++
	}
	if names["potrf"] != 3 || names["trsm"] != 3 || names["syrk"] != 3 || names["gemm"] != 1 {
		t.Fatalf("task mix %v", names)
	}
}

func TestKmeansUpdateDependsOnAllPartials(t *testing.T) {
	g := build(t, "Kmeans")
	for _, tk := range g.Tasks() {
		if strings.HasPrefix(tk.Name, "update[") {
			if tk.NumPreds() < 16 {
				t.Fatalf("%s has %d preds, want >= 16 chunks", tk.Name, tk.NumPreds())
			}
		}
	}
}

func TestKNNSharedTrainingSet(t *testing.T) {
	g := build(t, "KNN")
	// All classify tasks read the same training range: the first dep of
	// every task must be identical.
	var first mem.Range
	for i, tk := range g.Tasks() {
		if i == 0 {
			first = tk.Deps[0].Range
			continue
		}
		if tk.Deps[0].Range != first {
			t.Fatal("training set range differs between tasks")
		}
	}
	// Reading shared data creates no edges.
	if g.NumEdges() != 0 {
		t.Fatalf("KNN has %d edges, want 0 (read-only sharing)", g.NumEdges())
	}
}

func TestHistoCrossWeaveAllToAll(t *testing.T) {
	g := build(t, "Histo")
	for _, tk := range g.Tasks() {
		if strings.HasPrefix(tk.Name, "weave[") {
			if tk.NumPreds() != 16 {
				t.Fatalf("%s preds = %d, want 16 (one per scan chunk)", tk.Name, tk.NumPreds())
			}
			break
		}
	}
}

func TestCGHasScalarBarriers(t *testing.T) {
	g := build(t, "CG")
	// alpha tasks must depend on all 16 dot tasks of their iteration.
	found := false
	for _, tk := range g.Tasks() {
		// Only iteration 0 has exactly the 16 RAW edges; later alphas add
		// WAW/WAR edges against the previous iteration's consumers.
		if tk.Name == "alpha[0]" {
			found = true
			if tk.NumPreds() != 16 {
				t.Fatalf("%s preds = %d, want 16", tk.Name, tk.NumPreds())
			}
		}
	}
	if !found {
		t.Fatal("no alpha task")
	}
}

func TestGoldenWritersNonEmpty(t *testing.T) {
	for _, n := range Names() {
		if n == "JPEG" {
			continue // no annotations → no graph-declared writers
		}
		g := build(t, n)
		if len(g.GoldenWriters()) == 0 {
			t.Errorf("%s: no golden writers", n)
		}
	}
}

func TestScaleChangesSize(t *testing.T) {
	small := rts.NewGraph()
	MustGet("MD5", 0.2).Build(small)
	big := rts.NewGraph()
	MustGet("MD5", 1.0).Build(big)
	if big.NumTasks() <= small.NumTasks() {
		t.Fatalf("scale had no effect: %d vs %d tasks", big.NumTasks(), small.NumTasks())
	}
}

// TestBadScaleRejected: a negative or non-finite scale builds no graph
// and has no identity, for a benchmark and a synth spec alike, while
// scale 0 keeps meaning "every size at its minimum".
func TestBadScaleRejected(t *testing.T) {
	for _, name := range []string{"Jacobi", "synth:chain/seed=7"} {
		for _, scale := range []float64{-1, math.NaN(), math.Inf(1)} {
			if _, err := Get(name, scale); err == nil || !strings.Contains(err.Error(), "scale") {
				t.Errorf("Get(%q, %g) error = %v; want a scale error", name, scale, err)
			}
			if id, err := Identity(name, scale); err == nil || !strings.Contains(err.Error(), "scale") {
				t.Errorf("Identity(%q, %g) = %q, %v; want a scale error", name, scale, id, err)
			}
		}
		if _, err := Get(name, 0); err != nil {
			t.Errorf("Get(%q, 0): %v", name, err)
		}
		if _, err := Identity(name, 0); err != nil {
			t.Errorf("Identity(%q, 0): %v", name, err)
		}
	}
}

// Identity is the workload half of the resultstore cache key.
func TestIdentityNamespaces(t *testing.T) {
	// Benchmarks: scale is part of the identity.
	a, err := Identity("Jacobi", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(a, "bench:Jacobi/scale=0.5") {
		t.Fatalf("bench identity = %q", a)
	}
	// Traces: identity comes from the RTF header, not the path, so a
	// renamed trace file keeps its identity (and its cached results).
	w := MustGet("Jacobi", 0.05)
	tr, err := tracefile.Record(w, tracefile.Fingerprint("Jacobi@0.05"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	p1 := filepath.Join(dir, "one.rtf")
	p2 := filepath.Join(dir, "renamed.rtf")
	if err := tracefile.WriteFile(p1, tr); err != nil {
		t.Fatal(err)
	}
	if err := tracefile.WriteFile(p2, tr); err != nil {
		t.Fatal(err)
	}
	id1, err := Identity("trace:"+p1, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := Identity("trace:"+p2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatalf("renaming a trace changed its identity: %q vs %q", id1, id2)
	}
	if !strings.HasPrefix(id1, "trace:Jacobi/sha=") {
		t.Fatalf("trace identity = %q", id1)
	}
	// Different content under the same name = different identity: a
	// re-recorded workload must not inherit stale cached results.
	w2 := MustGet("Jacobi", 0.2)
	tr2, err := tracefile.Record(w2, tracefile.Fingerprint("Jacobi@0.05"))
	if err != nil {
		t.Fatal(err)
	}
	tr2.Header.Name = tr.Header.Name
	p3 := filepath.Join(dir, "other-content.rtf")
	if err := tracefile.WriteFile(p3, tr2); err != nil {
		t.Fatal(err)
	}
	id3, err := Identity("trace:"+p3, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if id3 == id1 {
		t.Fatal("traces with different content share an identity")
	}
	if _, err := Identity("trace:/no/such/file.rtf", 1.0); err == nil {
		t.Fatal("missing trace file must not get an identity")
	}
	if _, err := Identity("synth:badpreset", 1.0); err == nil {
		t.Fatal("bad synth spec must not get an identity")
	}
}
