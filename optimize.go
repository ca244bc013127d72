package maligo

import (
	"maligo/internal/clc/backend"
	"maligo/internal/clc/opt"
)

// The transform surface: where Analyze only reports the source paper's
// Section V optimization opportunities, Optimize applies them as
// verified IR-to-IR rewrites — auto-vectorization of unit-stride
// loops, AoS-to-SoA relayout of kernel scratch arrays, register-budget
// gated unrolling, and const/restrict promotion. A transformed program
// is guaranteed bit-identical to the original on every VM engine; a
// pass that cannot prove its soundness conditions refuses and says
// why, keyed to the analyzer pass whose diagnostic it answers.
type (
	// OptimizeResult is one transform pass's applicability verdict for
	// one kernel: applied with a site count, or refused with reasons.
	OptimizeResult = opt.Result
	// OptimizeReport aggregates per-kernel, per-pass OptimizeResults
	// for one Optimize run.
	OptimizeReport = opt.Report
	// OptimizePass describes one registered transform pass and the
	// analyzer passes whose findings it acts on.
	OptimizePass = opt.Pass
)

// Optimize runs the full transform pipeline over a compiled program.
// The input is never mutated; when no pass applies, the returned
// program is the input pointer itself.
func Optimize(p *CompiledProgram) (*CompiledProgram, *OptimizeReport) {
	return opt.Optimize(p)
}

// OptimizeWith is Optimize restricted to the named transform passes
// (see OptimizePassNames); a nil list runs everything. Passes always
// execute in pipeline order regardless of the order given.
func OptimizeWith(p *CompiledProgram, passes []string) (*CompiledProgram, *OptimizeReport, error) {
	return opt.OptimizeWith(p, passes)
}

// OptimizePasses lists the registered transform passes in pipeline
// order with their documentation.
func OptimizePasses() []OptimizePass { return opt.Passes() }

// OptimizePassNames lists the transform pass names in pipeline order —
// the vocabulary of OptimizeWith and the clc -optimize -passes flag.
func OptimizePassNames() []string {
	return opt.PassNames()
}

// KernelIRDump renders one compiled kernel in the versioned irdump
// text format — the stable before/after representation the transform
// goldens and `clc -optimize -dis` print.
func KernelIRDump(k *CompiledKernel) (string, error) {
	out, err := backend.IRDump(k)
	if err != nil {
		return "", err
	}
	return string(out), nil
}
