package progcache

import (
	"testing"

	"maligo/internal/clc/analysis"
	"maligo/internal/clc/ir"
	"maligo/internal/clc/opt"
	"maligo/internal/job"
)

// admitted keeps the benchmark's results live.
var admitted struct {
	diags []analysis.Diagnostic
	prog  *ir.Program
}

// admit does the work of one cold optimizing admission below the
// cache: compile, the analyzer gate, and the transform pipeline.
func admit(b *testing.B, s *job.Spec) {
	art, err := job.Compile(s.Source, s.Options)
	if err != nil {
		b.Fatal(err)
	}
	admitted.diags = analysis.Analyze(art)
	admitted.prog, _ = opt.Optimize(art.Prog)
}

// BenchmarkColdAdmission measures what a cache miss under -optimize
// costs: "mix" is one cycle over the nine-benchmark job mix, and each
// per-kernel sub-benchmark admits one mix entry alone. Run with
// -benchmem; allocations are as much the cost as CPU time.
func BenchmarkColdAdmission(b *testing.B) {
	specs := job.MixSpecs()
	b.Run("mix", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range specs {
				admit(b, s)
			}
		}
	})
	for _, s := range specs {
		b.Run(s.Kernel, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				admit(b, s)
			}
		})
	}
}
