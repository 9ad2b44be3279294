// Package lint wires the hwlint analyzers together: the registry consumed
// by cmd/hwlint and the per-analyzer package scoping. Scoping lives here —
// not in the analyzers — so each analyzer stays a pure function of one
// package and the policy of where it applies is auditable in one place.
package lint

import (
	"strings"

	"hybridwh/internal/lint/analysis"
	"hybridwh/internal/lint/ctxflow"
	"hybridwh/internal/lint/errwrap"
	"hybridwh/internal/lint/gohygiene"
	"hybridwh/internal/lint/load"
	"hybridwh/internal/lint/lockorder"
	"hybridwh/internal/lint/mutexguard"
	"hybridwh/internal/lint/nondet"
	"hybridwh/internal/lint/poolsafe"
	"hybridwh/internal/lint/protocol"
)

// Analyzers returns every hwlint analyzer, in reporting order. The first
// five are syntactic/lexical; the last three are flow-sensitive, built on
// internal/lint/cfg and internal/lint/callgraph.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		nondet.Analyzer,
		gohygiene.Analyzer,
		protocol.Analyzer,
		errwrap.Analyzer,
		mutexguard.Analyzer,
		ctxflow.Analyzer,
		lockorder.Analyzer,
		poolsafe.Analyzer,
	}
}

// deterministicPkgs are the packages whose outputs must be bit-for-bit
// reproducible across runs (EXPERIMENTS.md, benchmarks, the cost model);
// only they are subject to the nondet analyzer.
var deterministicPkgs = map[string]bool{
	"hybridwh/internal/analyzer":    true,
	"hybridwh/internal/core":        true,
	"hybridwh/internal/netsim":      true,
	"hybridwh/internal/datagen":     true,
	"hybridwh/internal/experiments": true,
	"hybridwh/internal/costmodel":   true,
}

// poolPlanePkgs are the packages that draw batches from internal/batch
// pools; only they are subject to the poolsafe analyzer. sched is in the
// set because its Run closures execute engine programs that hold pooled
// batches: a pool-unsafe escape there would outlive the query's budget.
// analyzer is in the set because Lower's plans carry expression trees the
// engine evaluates against pooled batches.
var poolPlanePkgs = map[string]bool{
	"hybridwh/internal/analyzer": true,
	"hybridwh/internal/format":   true,
	"hybridwh/internal/jen":      true,
	"hybridwh/internal/core":     true,
	"hybridwh/internal/relop":    true,
	"hybridwh/internal/edw":      true,
	"hybridwh/internal/sched":    true,
}

// Applies reports whether an analyzer runs on a package.
func Applies(a *analysis.Analyzer, pkg *load.Package) bool {
	path := pkg.ImportPath
	if strings.Contains(path, "/testdata/") {
		return false
	}
	switch a.Name {
	case "nondet":
		return deterministicPkgs[path]
	case "poolsafe":
		return poolPlanePkgs[path]
	case "gohygiene":
		// par is the abstraction bare goroutines should flow through, and
		// the lint tree never spawns goroutines; everything else under
		// internal/ must use it.
		return strings.HasPrefix(path, "hybridwh/internal/") &&
			path != "hybridwh/internal/par" &&
			!strings.HasPrefix(path, "hybridwh/internal/lint")
	case "ctxflow":
		// par's semaphore receives are the blocking primitive itself, and the
		// lint tree is single-threaded; everything else — engines, wire, I/O,
		// the cmd trees with long-running loops — must stay abortable.
		return path != "hybridwh/internal/par" &&
			!strings.HasPrefix(path, "hybridwh/internal/lint")
	default:
		return true
	}
}
