package main

import (
	"strings"
)

// modulePath is the import path of the module under test.
const modulePath = "maligo"

// packageLayers charges each package of the module to one layer. The
// key is the package path relative to the module root ("" is the root
// package, the public API the benchmark calls). Every internal package
// must appear exactly once; TestEveryInternalPackageHasOneLayer keeps
// the table in step with the tree.
var packageLayers = map[string]string{
	"": "api",

	"internal/clc":                   "clc",
	"internal/clc/ast":               "clc",
	"internal/clc/backend":           "clc",
	"internal/clc/builtin":           "clc",
	"internal/clc/ir":                "clc",
	"internal/clc/lexer":             "clc",
	"internal/clc/parser":            "clc",
	"internal/clc/preproc":           "clc",
	"internal/clc/sema":              "clc",
	"internal/clc/token":             "clc",
	"internal/clc/types":             "clc",
	"internal/clc/analysis":          "analysis",
	"internal/clc/analysis/dataflow": "analysis",
	"internal/clc/opt":               "opt",

	"internal/vm":    "vm",
	"internal/cpu":   "timing",
	"internal/mali":  "timing",
	"internal/mem":   "timing",
	"internal/power": "power",

	"internal/cl":       "cl",
	"internal/core":     "cl",
	"internal/device":   "cl",
	"internal/obs":      "cl",
	"internal/platform": "cl",
	"internal/sched":    "cl",

	"internal/job":               "job",
	"internal/service":           "service",
	"internal/service/progcache": "progcache",

	"internal/bench":   "harness",
	"internal/harness": "harness",
	"internal/stats":   "harness",
	"internal/tune":    "harness",

	"internal/lint": layerTools,
}

// funcLayers refines packageLayers for functions that belong to another
// layer than their package: trace recording and replay live in
// internal/vm but are the front half of the timing model.
var funcLayers = []struct{ pkg, prefix, layer string }{
	{"internal/vm", "(*Trace).", "vm.trace"},
}

// Layers outside the module's packages.
const (
	layerClient = "client" // this benchmark's own code: the load-generating client
	layerHTTP   = "http"   // net/http and the network stack, below any handler
	layerGC     = "gc"     // the Go runtime: collector, allocator slow paths, scheduler
	layerOther  = "other"  // a module package the table does not name
	layerTools  = "tools"  // repository tooling no workload runs; not reported
)

// reportedLayers lists every layer the traced run reports, in output
// order.
var reportedLayers = []string{
	"clc", "analysis", "opt", "vm", "vm.trace", "timing", "power",
	"cl", "job", "service", "progcache", "harness", "api",
	layerHTTP, layerClient, layerGC, layerOther,
}

// splitFunc splits a symbolized frame such as
// "maligo/internal/vm.(*Trace).OnAccess" into its package path and the
// function name within the package.
func splitFunc(frame string) (pkg, fn string) {
	slash := strings.LastIndex(frame, "/")
	dot := strings.Index(frame[slash+1:], ".")
	if dot < 0 {
		return frame, ""
	}
	i := slash + 1 + dot
	return frame[:i], frame[i+1:]
}

// layerOf attributes one sampled stack, leaf first, to a layer: the
// innermost frame of the module (or of this benchmark) decides. Stacks
// with no such frame are network work when any frame is in the
// network stack, and Go runtime work otherwise.
func layerOf(stack []string) string {
	network := false
	for _, frame := range stack {
		pkg, fn := splitFunc(frame)
		if pkg == "main" {
			return layerClient
		}
		if rel, ok := moduleRel(pkg); ok {
			return moduleLayer(rel, fn)
		}
		if strings.HasPrefix(pkg, "net/") || pkg == "net" || pkg == "internal/poll" || pkg == "bufio" {
			network = true
		}
	}
	if network {
		return layerHTTP
	}
	return layerGC
}

// moduleRel reports whether pkg belongs to the module and returns its
// path relative to the module root.
func moduleRel(pkg string) (string, bool) {
	if pkg == modulePath {
		return "", true
	}
	if rel, ok := strings.CutPrefix(pkg, modulePath+"/"); ok {
		return rel, true
	}
	return "", false
}

func moduleLayer(rel, fn string) string {
	for _, r := range funcLayers {
		if r.pkg == rel && strings.HasPrefix(fn, r.prefix) {
			return r.layer
		}
	}
	if l, ok := packageLayers[rel]; ok {
		return l
	}
	return layerOther
}
