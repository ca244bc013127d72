package progcache

import (
	"testing"

	"maligo/internal/job"
)

// admitted keeps the benchmark's results live.
var admitted struct{ base, optimized *Entry }

// BenchmarkColdAdmission measures what a cache miss under -optimize
// costs below the cache: admit's compile, analyzer gate and seeded
// transform pipeline, exactly as GetOrCompileOptimized runs them.
// "mix" is one cycle over the nine-benchmark job mix, and each
// per-kernel sub-benchmark admits one mix entry alone. Run with
// -benchmem; allocations are as much the cost as CPU time.
func BenchmarkColdAdmission(b *testing.B) {
	run := func(b *testing.B, specs ...*job.Spec) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range specs {
				var err error
				if admitted.base, admitted.optimized, err = admit(s.Source, s.Options); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	specs := job.MixSpecs()
	b.Run("mix", func(b *testing.B) { run(b, specs...) })
	for _, s := range specs {
		b.Run(s.Kernel, func(b *testing.B) { run(b, s) })
	}
}
