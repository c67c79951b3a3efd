package lint

import (
	"go/ast"
	"go/types"
)

// Nodeterm forbids the ambient-nondeterminism entry points inside the
// deterministic package set: the wall clock, the process environment,
// unseeded global randomness, and bare goroutines outside the runner.
// Every one of these has a deterministic seam the simulator already
// provides — the engine clock (Engine.Now), Scenario.Seed-derived RNGs,
// explicit configuration, and the runner's concurrency — so a
// use of the ambient version is either a bug or a reviewed, annotated
// exemption.
var Nodeterm = &Analyzer{
	Name: "nodeterm",
	Doc: "forbid wall-clock time, environment reads, unseeded randomness, " +
		"and bare go statements in deterministic packages",
	Run: runNodeterm,
}

// forbiddenFuncs maps package path → function name → the deterministic
// replacement named in the diagnostic.
var forbiddenFuncs = map[string]map[string]string{
	"time": {
		"Now":       "the engine clock (Engine.Now / injected clock)",
		"Since":     "differences of engine timestamps",
		"Until":     "differences of engine timestamps",
		"After":     "Engine.Schedule",
		"AfterFunc": "Engine.Schedule",
		"Tick":      "Engine.Schedule",
		"NewTimer":  "Engine.Schedule",
		"NewTicker": "Engine.Schedule",
		"Sleep":     "an event scheduled at a virtual time",
	},
	"os": {
		"Getenv":    "explicit configuration (Scenario fields, flags)",
		"LookupEnv": "explicit configuration (Scenario fields, flags)",
		"Environ":   "explicit configuration (Scenario fields, flags)",
	},
	"crypto/rand": {
		"Read":  "a Scenario.Seed-derived source",
		"Int":   "a Scenario.Seed-derived source",
		"Prime": "a Scenario.Seed-derived source",
		"Text":  "a Scenario.Seed-derived source",
	},
}

// seededRandCtors are the math/rand package-level functions that merely
// construct seedable values; everything else at package level draws from
// the process-global source and is forbidden.
var seededRandCtors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true, // constructor: takes the caller's *Rand
	"NewPCG":     true, // math/rand/v2 seeded generators
	"NewChaCha8": true,
}

func runNodeterm(pass *Pass) error {
	if !IsDeterministicPkg(pass.ImportPath) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if pass.ImportPath != runnerPkg {
					pass.Reportf(n.Pos(), "go statement outside %s: deterministic packages must not start goroutines (the runner owns all concurrency)", runnerPkg)
				}
			case *ast.Ident:
				fn, ok := pass.Info.Uses[n].(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
					return true // methods (e.g. (*rand.Rand).Intn) are seeded
				}
				pkgPath, name := fn.Pkg().Path(), fn.Name()
				if alt, bad := forbiddenFuncs[pkgPath][name]; bad {
					pass.Reportf(n.Pos(), "%s.%s is nondeterministic; use %s", pkgPath, name, alt)
					return true
				}
				if (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && !seededRandCtors[name] {
					pass.Reportf(n.Pos(), "%s.%s draws from the process-global source; use a Scenario.Seed-derived *rand.Rand (rand.New(rand.NewSource(seed)))", pkgPath, name)
				}
			}
			return true
		})
	}
	return nil
}
