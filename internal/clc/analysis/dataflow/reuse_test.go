package dataflow_test

import (
	"reflect"
	"testing"

	"maligo/internal/bench"
	"maligo/internal/clc"
	"maligo/internal/clc/analysis/dataflow"
	"maligo/internal/clc/ir"
	"maligo/internal/clc/opt"
)

// eachBenchKernel compiles every benchmark at both precisions twice
// and calls fn with each kernel and its independently compiled twin,
// an unmodified deep clone of it.
func eachBenchKernel(t *testing.T, fn func(t *testing.T, k, twin *ir.Kernel)) {
	for _, b := range bench.All() {
		for _, prec := range []bench.Precision{bench.F32, bench.F64} {
			t.Run(b.Name()+"_"+prec.String(), func(t *testing.T) {
				var progs [2]*ir.Program
				for i := range progs {
					p, err := clc.Compile(b.Name()+".cl", b.Source(), prec.BuildOptions())
					if err != nil {
						t.Fatalf("compile: %v", err)
					}
					progs[i] = p
				}
				for _, kn := range progs[0].KernelNames() {
					fn(t, progs[0].Kernels[kn], progs[1].Kernels[kn])
				}
			})
		}
	}
}

// TestQualifierPassKeepsFacts pins the rule that lets the transform
// pipeline keep its facts across constrestrict: promoting const and
// restrict changes no fact the engine derives.
func TestQualifierPassKeepsFacts(t *testing.T) {
	applied := 0
	eachBenchKernel(t, func(t *testing.T, k, _ *ir.Kernel) {
		k2, res, err := opt.OptimizeKernel(k, []string{"constrestrict"})
		if err != nil {
			t.Fatal(err)
		}
		if !res[0].Applied {
			return
		}
		applied++
		if got, want := dataflow.GoldenFacts(k2), dataflow.GoldenFacts(k); got != want {
			t.Errorf("kernel %s: facts changed by constrestrict\nbefore:\n%s\nafter:\n%s", k.Name, want, got)
		}
	})
	if applied == 0 {
		t.Fatal("constrestrict applied to no benchmark kernel; the test checks nothing")
	}
}

// TestLoopsStableAcrossRebind checks that Loops returns the same loops
// on every call and after Rebind, and that rebound facts render exactly
// as a fresh solve of the clone does.
func TestLoopsStableAcrossRebind(t *testing.T) {
	eachBenchKernel(t, func(t *testing.T, k, twin *ir.Kernel) {
		f := dataflow.Analyze(k)
		first := f.Loops()
		if again := f.Loops(); !reflect.DeepEqual(first, again) {
			t.Fatalf("kernel %s: Loops differs between calls", k.Name)
		}
		if fresh := dataflow.Analyze(k).Loops(); !reflect.DeepEqual(first, fresh) {
			t.Fatalf("kernel %s: Loops differs from a fresh solve", k.Name)
		}
		r := f.Rebind(twin)
		if r.G.Kernel != twin {
			t.Fatalf("kernel %s: rebound graph does not point at the clone", k.Name)
		}
		if rebound := r.Loops(); !reflect.DeepEqual(first, rebound) {
			t.Fatalf("kernel %s: Loops differs after Rebind", k.Name)
		}
		if got, want := dataflow.RenderFacts(r), dataflow.GoldenFacts(twin); got != want {
			t.Errorf("kernel %s: rebound facts differ from a fresh solve of the clone\nrebound:\n%s\nfresh:\n%s", k.Name, got, want)
		}
	})
}
