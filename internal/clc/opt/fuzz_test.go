package opt

import (
	"testing"

	"maligo/internal/clc"
)

// FuzzTransformEquivalence is the transform engine's standing
// correctness fuzzer: any OpenCL C source the frontend accepts is
// compiled, pushed through the full pass pipeline, and every kernel is
// executed on both VM engines against the reference interpreter
// running the UNTRANSFORMED IR. Any divergence — results, or
// fault/no-fault disagreement — is a soundness bug in a pass. Every
// input also runs the pipeline seeded with the analyzer gate's facts,
// which must give the unseeded output and report exactly.
//
// The seed corpus covers each pass plus the hard refusal shapes;
// `make fuzz-smoke` gives it a short deterministic budget on every CI
// run and the nightly long-fuzz workflow lets it explore.
func FuzzTransformEquivalence(f *testing.F) {
	for _, tc := range diffCases {
		f.Add(tc.src, int64(tc.scalar), uint64(1))
	}
	for _, tc := range negCases {
		f.Add(tc.src, int64(9), uint64(7))
	}
	f.Fuzz(func(t *testing.T, src string, scalar int64, seed uint64) {
		if len(src) > 1<<14 {
			t.Skip("oversized source")
		}
		art, err := clc.CompileArtifacts("fuzz.cl", src, "")
		if err != nil {
			t.Skip("source does not compile")
		}
		checkSeededMatchesFresh(t, art)
		prog := art.Prog
		out, rep, err := OptimizeWith(prog, nil)
		if err != nil {
			t.Fatalf("OptimizeWith on compiled source: %v", err)
		}
		if !rep.Applied() {
			return // nothing transformed; nothing to compare
		}
		// Clamp the scalar binding: huge values only buy step-limit
		// timeouts, and negative trip counts are covered by small ones.
		scalar = ((scalar % 33) + 33) % 33
		for _, name := range kernelNames(prog) {
			ko, kx := prog.Kernels[name], out.Kernels[name]
			if len(ko.Params) > 12 {
				continue
			}
			checkEquivalence(t, ko, kx, 4, 2, scalar, seed)
		}
	})
}
