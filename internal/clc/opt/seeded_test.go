package opt

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"maligo/internal/bench"
	"maligo/internal/clc"
	"maligo/internal/clc/analysis"
	"maligo/internal/clc/analysis/dataflow"
	"maligo/internal/clc/backend"
)

// checkSeededMatchesFresh runs the full pipeline over art.Prog twice,
// seeded with the analyzer gate's facts and unseeded, and fails on any
// difference in a kernel's IR dump or in the report. It returns the
// number of kernels that had a seed.
func checkSeededMatchesFresh(t *testing.T, art *clc.Artifacts) int {
	t.Helper()
	_, facts := analysis.AnalyzeFacts(art)
	seeded, srep := OptimizeSeeded(art.Prog, facts)
	fresh, frep, err := OptimizeWith(art.Prog, nil)
	if err != nil {
		t.Fatalf("OptimizeWith: %v", err)
	}
	if !reflect.DeepEqual(srep, frep) {
		t.Fatalf("seeded report differs from fresh:\nseeded:\n%s\nfresh:\n%s", srep, frep)
	}
	seeds := 0
	for _, kn := range kernelNames(art.Prog) {
		if facts[kn] != nil {
			seeds++
		}
		s, err := backend.IRDump(seeded.Kernels[kn])
		if err != nil {
			t.Fatalf("irdump seeded %s: %v", kn, err)
		}
		f, err := backend.IRDump(fresh.Kernels[kn])
		if err != nil {
			t.Fatalf("irdump fresh %s: %v", kn, err)
		}
		if !bytes.Equal(s, f) {
			t.Errorf("kernel %s: seeded IR differs from fresh\nseeded:\n%s\nfresh:\n%s", kn, s, f)
		}
	}
	return seeds
}

// eachCorpusUnit compiles every benchmark at both precisions and
// every transform golden corpus source, and calls fn with each.
func eachCorpusUnit(t *testing.T, fn func(t *testing.T, art *clc.Artifacts)) {
	for _, b := range bench.All() {
		for _, prec := range []bench.Precision{bench.F32, bench.F64} {
			t.Run(b.Name()+"_"+prec.String(), func(t *testing.T) {
				art, err := clc.CompileArtifacts(b.Name()+".cl", b.Source(), prec.BuildOptions())
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				fn(t, art)
			})
		}
	}
	files, err := filepath.Glob(filepath.Join("testdata", "*.cl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden corpus sources found: %v", err)
	}
	for _, f := range files {
		t.Run(strings.TrimSuffix(filepath.Base(f), ".cl"), func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			art, err := clc.CompileArtifacts("opt_test.cl", string(src), "")
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			fn(t, art)
		})
	}
}

// TestSeededMatchesFresh pins OptimizeSeeded to the unseeded pipeline
// on every kernel of the nine benchmarks at both precisions and on the
// transform golden corpus. FuzzTransformEquivalence makes the same
// comparison on its seed files and on every input it explores.
func TestSeededMatchesFresh(t *testing.T) {
	eachCorpusUnit(t, func(t *testing.T, art *clc.Artifacts) {
		// Every corpus kernel has IR, so the gate solves it and the
		// seeded path is the one under test.
		if n := checkSeededMatchesFresh(t, art); n != len(art.Prog.Kernels) {
			t.Fatalf("gate solved %d of %d kernels", n, len(art.Prog.Kernels))
		}
	})
}

// TestQualifierOnlyDeclarations runs each registered pass alone over
// the corpus and checks its qualifiersOnly declaration against what it
// did: a declared pass never changes code, and a pass that changed
// code is not declared. Every pass must apply somewhere, or the check
// would hold vacuously.
func TestQualifierOnlyDeclarations(t *testing.T) {
	applied := map[string]bool{}
	eachCorpusUnit(t, func(t *testing.T, art *clc.Artifacts) {
		for _, kn := range kernelNames(art.Prog) {
			k := art.Prog.Kernels[kn]
			for _, p := range passes {
				work := cloneKernel(k)
				if !p.run(&passCtx{k: work, facts: dataflow.Analyze(work)}) {
					continue
				}
				applied[p.Name] = true
				same := reflect.DeepEqual(work.Code, k.Code) && reflect.DeepEqual(work.Arrays, k.Arrays) &&
					work.NumI == k.NumI && work.NumF == k.NumF
				if p.qualifiersOnly && !same {
					t.Errorf("kernel %s: qualifier-only pass %s changed code", kn, p.Name)
				}
				if !p.qualifiersOnly && same {
					t.Errorf("kernel %s: pass %s applied without changing code; declare it qualifiersOnly", kn, p.Name)
				}
			}
		}
	})
	for _, p := range passes {
		if !applied[p.Name] {
			t.Errorf("pass %s applied to no corpus kernel", p.Name)
		}
	}
}
