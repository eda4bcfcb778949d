package analysis

import (
	"strings"
)

// Layering enforces the import DAG the PR 7 refactor established:
//
//   - sim-core packages (cache/classify/coherence/core/cpu/directory/
//     energy/machine/mem/noc/rts/sim/vm) must not import the
//     serving layers — internal/service/*, internal/resultstore,
//     internal/obs. A simulation result is a pure function of its
//     inputs; the core must stay compilable and reasoned-about without
//     HTTP, caches or logging in scope.
//   - raccd/client imports no internal/* at all: it is the package third
//     parties vendor against a remote daemon, dependency-free by design
//     (it even redeclares the trace header rather than importing obs).
//   - cmd/* and examples/* reach internals only through internal/report
//     and internal/service; anything deeper is supposed to flow through
//     the public raccd API, or carry a //raccd:layering-ok directive
//     naming why no public surface exists for it.
var Layering = &Analyzer{
	Name:      "layering",
	Doc:       "imports that violate the sim-core / client / cmd layering DAG",
	Directive: "layering-ok",
	Applies: func(path string) bool {
		return isSimCore(path) || path == modulePath+"/client" || isCmdLike(path)
	},
	Run: runLayering,
}

// simCoreForbidden are the serving-layer trees sim-core must not see.
var simCoreForbidden = []string{
	modulePath + "/internal/service",
	modulePath + "/internal/resultstore",
	modulePath + "/internal/obs",
}

func runLayering(pass *Pass) error {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			switch {
			case isSimCore(pass.Path):
				for _, forbidden := range simCoreForbidden {
					if path == forbidden || strings.HasPrefix(path, forbidden+"/") {
						pass.Report(imp.Pos(),
							"sim-core package %s imports serving-layer package %s: the simulation core must stay independent of service/resultstore/obs", pass.Path, path)
					}
				}
			case pass.Path == modulePath+"/client":
				if strings.HasPrefix(path, modulePath+"/internal/") {
					pass.Report(imp.Pos(),
						"raccd/client imports %s: the client is vendorable and dependency-free by design — redeclare what it needs instead", path)
				}
			case isCmdLike(pass.Path):
				if !strings.HasPrefix(path, modulePath+"/internal/") {
					continue
				}
				allowed := false
				for _, a := range cmdInternalAllowed {
					if path == a || strings.HasPrefix(path, a+"/") {
						allowed = true
						break
					}
				}
				if !allowed {
					pass.Report(imp.Pos(),
						"%s imports %s: commands use the public raccd API, internal/report or internal/service — annotate //raccd:layering-ok <reason> if no public surface exists", pass.Path, path)
				}
			}
		}
	}
	return nil
}
