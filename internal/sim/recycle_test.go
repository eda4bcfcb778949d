package sim

import (
	"reflect"
	"sync"
	"testing"

	"raccd/internal/coherence"
	"raccd/internal/machine"
	"raccd/internal/workloads"
)

// TestResultIsPlainValue: a Result holds no pointer, interface, map,
// slice, chan or func. Such a field could pin a finished run's machine
// (whose arrays the next run reuses) and would make == compare
// identities instead of metrics.
func TestResultIsPlainValue(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Interface,
			reflect.Map, reflect.Slice, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s", path, typ.Kind())
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		}
	}
	walk("Result", reflect.TypeOf(Result{}))
}

// TestRecycledRunsMatchSequential: runs of mixed geometry executed
// concurrently, so that cache and directory arrays pass between runs of
// different sizes and ADR resizes, produce exactly their sequential
// results. Run it under -race with -count.
func TestRecycledRunsMatchSequential(t *testing.T) {
	adr := DefaultConfig(coherence.PT, 1)
	adr.ADR = true
	m64 := DefaultConfig(coherence.RaCCD, 1)
	m64.Params = machine.Machine64().Params()
	cfgs := []Config{
		DefaultConfig(coherence.RaCCD, 1),
		DefaultConfig(coherence.FullCoh, 16),
		adr,
		m64,
	}
	run := func(cfg Config) Result {
		w, err := workloads.Get("Jacobi", 0.05)
		if err != nil {
			t.Error(err)
			return Result{}
		}
		res, err := Run(w, cfg)
		if err != nil {
			t.Error(err)
		}
		return res
	}
	want := make([]Result, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = run(cfg)
	}
	const rounds = 2
	got := make([]Result, rounds*len(cfgs))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = run(cfgs[i%len(cfgs)])
		}(i)
	}
	wg.Wait()
	for i, res := range got {
		if w := want[i%len(cfgs)]; res != w {
			t.Errorf("concurrent run %d diverged from its sequential result:\n%+v\nvs\n%+v", i, res, w)
		}
	}
}
