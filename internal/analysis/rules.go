package analysis

import (
	"go/ast"
	"strings"
)

// Module-specific layer classification. The rules are deliberately
// hard-coded against the raccd import-path layout: they ARE the
// repo-specific invariants this suite exists to enforce, and the test
// harness mounts its testdata packages at these same virtual paths.
const modulePath = "raccd"

// simCorePkgs are the deterministic simulation-core packages: everything
// a sim.Result is computed from. They must be a pure function of
// (Config, Workload) — no host clocks, no environment, no unseeded
// randomness — and must not know about the serving layers above them.
var simCorePkgs = []string{
	"cache", "classify", "coherence", "core", "cpu", "directory",
	"energy", "machine", "mem", "noc", "rts", "sim", "vm",
}

// deterministicOutputPkgs render or route byte-pinned output (golden
// CSVs, Prometheus exposition, fabric batch merging): map iteration
// order must never reach their output.
var deterministicOutputPkgs = []string{
	modulePath + "/internal/report",
	modulePath + "/internal/rts",
	modulePath + "/internal/sim",
	modulePath + "/internal/service",
	modulePath + "/internal/service/exec",
	modulePath + "/internal/service/fabric",
	modulePath + "/internal/workloads",
}

// cmdInternalAllowed are the internal packages command mains may import
// without a //raccd:layering-ok directive: the report harness and the
// service tree. Everything else is supposed to be reached through the
// public raccd API.
var cmdInternalAllowed = []string{
	modulePath + "/internal/report",
	modulePath + "/internal/service",
}

func isSimCore(path string) bool {
	for _, p := range simCorePkgs {
		if path == modulePath+"/internal/"+p {
			return true
		}
	}
	return false
}

func isDeterministicOutput(path string) bool {
	for _, p := range deterministicOutputPkgs {
		if path == p {
			return true
		}
	}
	return false
}

// isCmdLike reports whether path is a command main or an example — code
// that owns a process and may print, read the environment and mint root
// contexts.
func isCmdLike(path string) bool {
	return strings.HasPrefix(path, modulePath+"/cmd/") ||
		strings.HasPrefix(path, modulePath+"/examples/")
}

// isLibrary reports whether path is module library code: anything in the
// module that is not command-like.
func isLibrary(path string) bool {
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return false
	}
	return !isCmdLike(path)
}

// fileImports maps each import's local name to its path for one file,
// so selector expressions like time.Now can be resolved syntactically.
// The default local name is the path's last element — exact for the
// standard library and this module.
func fileImports(f *ast.File) map[string]string {
	out := map[string]string{}
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path
		if i := strings.LastIndexByte(path, '/'); i >= 0 {
			name = path[i+1:]
		}
		if imp.Name != nil {
			name = imp.Name.Name
			if name == "_" || name == "." {
				continue
			}
		}
		out[name] = path
	}
	return out
}

// calleePkgFunc resolves a call expression of the form pkg.Func against
// the file's import table, returning the import path and function name,
// or ok=false for anything else (method calls, locals, non-package
// selectors shadowed by variables are conservatively not resolved).
func calleePkgFunc(call *ast.CallExpr, imports map[string]string) (pkg, fn string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	ident, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	path, known := imports[ident.Name]
	if !known {
		return "", "", false
	}
	return path, sel.Sel.Name, true
}
