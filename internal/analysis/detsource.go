package analysis

import (
	"go/ast"
	"reflect"
	"strings"
)

// DetSource forbids host-nondeterminism sources in the sim-core
// packages: a sim.Result must be a pure function of (Config, Workload),
// byte-reproducible across hosts and runs — that is what the golden
// CSVs and the resultstore cache rest on. Flagged:
//
//   - importing math/rand, math/rand/v2 or crypto/rand (the page
//     allocator's seeded PRNG carries a //raccd:detsource-ok directive:
//     its seed is a Params field and part of the fingerprint);
//   - calling time.Now or os.Getenv/os.Environ/os.LookupEnv (a host
//     wall-clock artifact, should one ever be needed, is set outside the
//     metric path and annotated);
//   - a go statement, or a call to runtime.GOMAXPROCS or runtime.NumCPU:
//     one simulation runs on one goroutine, and runs fan out above
//     sim-core (internal/runner), so nothing in it spreads work over
//     host CPUs or depends on how many there are;
//   - a field of sim.Result whose name ends in "Seconds" (say, a
//     WallSeconds host measurement) without a `json:"-"` tag: host wall
//     times must never enter a cached result object, or a cache hit
//     would replay another host's timings.
var DetSource = &Analyzer{
	Name:      "detsource",
	Doc:       "host-nondeterminism sources (clock, env, randomness, goroutines) in sim-core",
	Directive: "detsource-ok",
	Applies:   isSimCore,
	Run:       runDetSource,
}

var detForbiddenImports = []string{"math/rand", "math/rand/v2", "crypto/rand"}

var detForbiddenCalls = map[string][]string{
	"time": {"Now"},
	"os":   {"Getenv", "Environ", "LookupEnv"},
}

func runDetSource(pass *Pass) error {
	for _, f := range pass.Files {
		imports := fileImports(f)
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			for _, forbidden := range detForbiddenImports {
				if path == forbidden {
					pass.Report(imp.Pos(),
						"sim-core package %s imports %s: randomness must be seeded from Params (and justified with //raccd:detsource-ok) or kept out of the core", pass.Path, path)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Report(g.Pos(),
					"go statement in sim-core package %s: one simulation runs on one goroutine — fan runs out above sim-core (internal/runner)", pass.Path)
				return true
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkg, fn, ok := calleePkgFunc(call, imports)
			if !ok {
				return true
			}
			for _, bad := range detForbiddenCalls[pkg] {
				if fn == bad {
					pass.Report(call.Pos(),
						"%s.%s in sim-core package %s: results must not depend on the host clock or environment — set host artifacts outside the metric path and annotate //raccd:detsource-ok <reason>", pkg, fn, pass.Path)
				}
			}
			if pkg == "runtime" && (fn == "GOMAXPROCS" || fn == "NumCPU") {
				pass.Report(call.Pos(),
					"%s.%s in sim-core package %s: one simulation runs on one goroutine, whatever the host's CPU count — fan runs out above sim-core (internal/runner)", pkg, fn, pass.Path)
			}
			return true
		})
		if pass.Path == modulePath+"/internal/sim" {
			checkResultHostArtifacts(pass, f)
		}
	}
	return nil
}

// checkResultHostArtifacts enforces json:"-" on sim.Result's wall-time
// fields so host measurements can never be serialized into a cache
// object or compared by the determinism tests.
func checkResultHostArtifacts(pass *Pass, f *ast.File) {
	for _, decl := range f.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gen.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok || ts.Name.Name != "Result" {
				continue
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				continue
			}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					if !strings.HasSuffix(name.Name, "Seconds") {
						continue
					}
					if field.Tag == nil || !jsonTagIsDash(field.Tag.Value) {
						pass.Report(name.Pos(),
							"sim.Result.%s is a host wall-time artifact and must carry `json:\"-\"` so it never enters a cached result object", name.Name)
					}
				}
			}
		}
	}
}

func jsonTagIsDash(raw string) bool {
	tag := reflect.StructTag(strings.Trim(raw, "`"))
	return tag.Get("json") == "-"
}
