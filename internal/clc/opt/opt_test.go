package opt

import (
	"bytes"
	"strings"
	"testing"

	"maligo/internal/clc/backend"
)

func TestPassNamesPipelineOrder(t *testing.T) {
	want := []string{"constrestrict", "soa", "vectorize", "unroll"}
	got := PassNames()
	if len(got) != len(want) {
		t.Fatalf("PassNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PassNames() = %v, want %v", got, want)
		}
	}
	for _, p := range Passes() {
		if p.Doc == "" {
			t.Errorf("pass %s has no doc string", p.Name)
		}
		if len(p.Answers) == 0 {
			t.Errorf("pass %s answers no analyzer pass", p.Name)
		}
	}
}

func TestSelectPassesUnknownName(t *testing.T) {
	prog := mustCompile(t, `__kernel void nop(__global int* p) { p[0] = 1; }`)
	if _, _, err := OptimizeWith(prog, []string{"loopfission"}); err == nil {
		t.Fatal("expected an error for an unknown pass name")
	} else if !strings.Contains(err.Error(), "unknown pass") {
		t.Fatalf("error %q does not name the unknown pass", err)
	}
}

func TestOptimizeWithSubsetRestrictsReport(t *testing.T) {
	// The acc kernel unrolls and promotes; with only "unroll" selected
	// the report must not even mention the other passes.
	_, _, rep := optimizeOne(t, diffCases[2].src, []string{"unroll"})
	for _, r := range rep.Results {
		if r.Pass != "unroll" {
			t.Errorf("unselected pass %q appears in the report", r.Pass)
		}
	}
	if got := rep.AppliedPasses(); len(got) != 1 || got[0] != "unroll" {
		t.Errorf("AppliedPasses() = %v, want [unroll]", got)
	}
}

func TestUnchangedProgramIsPointerIdentical(t *testing.T) {
	prog := mustCompile(t, `__kernel void nop() { }`)
	out, rep := Optimize(prog)
	if rep.Applied() {
		t.Fatalf("no pass should apply to an empty kernel:\n%s", rep)
	}
	if out != prog {
		t.Error("unchanged program must be returned pointer-identical")
	}
	if n := rep.ChangedKernels(); len(n) != 0 {
		t.Errorf("ChangedKernels() = %v, want none", n)
	}
}

func TestChangedProgramSharesUntouchedKernels(t *testing.T) {
	src := diffCases[1].src + `
		__kernel void nop() { }`
	prog, out, rep := optimizeOne(t, src, nil)
	if !rep.Applied() {
		t.Fatalf("expected the copy kernel to transform:\n%s", rep)
	}
	if out == prog {
		t.Fatal("transformed program must be a fresh *ir.Program")
	}
	if out.Kernels["nop"] != prog.Kernels["nop"] {
		t.Error("untouched kernel must be shared, not cloned")
	}
	if out.Kernels["copy"] == prog.Kernels["copy"] {
		t.Error("transformed kernel must be a clone, not the input")
	}
	if got := rep.ChangedKernels(); len(got) != 1 || got[0] != "copy" {
		t.Errorf("ChangedKernels() = %v, want [copy]", got)
	}
}

func TestInputProgramNeverMutated(t *testing.T) {
	for _, tc := range diffCases {
		prog := mustCompile(t, tc.src)
		before, err := backend.IRDump(prog.Kernels[tc.kernel])
		if err != nil {
			t.Fatalf("%s: irdump: %v", tc.name, err)
		}
		Optimize(prog)
		after, _ := backend.IRDump(prog.Kernels[tc.kernel])
		if !bytes.Equal(before, after) {
			t.Errorf("%s: Optimize mutated its input program", tc.name)
		}
	}
}

// TestOptimizeDeterministic runs the pipeline twice on every suite
// kernel and requires byte-identical irdump output: the transform
// framework may not depend on map iteration order anywhere.
func TestOptimizeDeterministic(t *testing.T) {
	for _, tc := range diffCases {
		_, out1, rep1 := optimizeOne(t, tc.src, nil)
		_, out2, rep2 := optimizeOne(t, tc.src, nil)
		if rep1.String() != rep2.String() {
			t.Errorf("%s: reports differ between runs", tc.name)
		}
		for _, name := range kernelNames(out1) {
			d1, _ := backend.IRDump(out1.Kernels[name])
			d2, _ := backend.IRDump(out2.Kernels[name])
			if !bytes.Equal(d1, d2) {
				t.Errorf("%s/%s: transformed IR differs between identical runs", tc.name, name)
			}
		}
	}
}

func TestReportString(t *testing.T) {
	_, _, rep := optimizeOne(t, diffCases[1].src, nil)
	s := rep.String()
	if !strings.Contains(s, "copy: [vectorize] applied") {
		t.Errorf("report misses the vectorize application:\n%s", s)
	}
	if !strings.Contains(s, "sites") {
		t.Errorf("report misses site counts:\n%s", s)
	}
}
