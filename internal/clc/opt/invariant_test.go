package opt

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"maligo/internal/bench"
	"maligo/internal/clc"
	"maligo/internal/clc/analysis/dataflow"
	"maligo/internal/clc/backend"
	"maligo/internal/clc/ir"
)

// corpusProgram is one compiled source the pipeline invariants are
// checked over.
type corpusProgram struct {
	name string
	prog *ir.Program
}

// invariantCorpus compiles every kernel source the transform tests
// know: the nine benchmarks at both precisions, the differential and
// refusal suites, the transform goldens, and the committed
// FuzzTransformEquivalence seeds.
func invariantCorpus(t *testing.T) []corpusProgram {
	t.Helper()
	var out []corpusProgram
	add := func(name, src, options string) {
		prog, err := clc.Compile(name+".cl", src, options)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		out = append(out, corpusProgram{name, prog})
	}
	for _, b := range bench.All() {
		for _, prec := range []bench.Precision{bench.F32, bench.F64} {
			add(b.Name()+"_"+prec.String(), b.Source(), prec.BuildOptions())
		}
	}
	for _, tc := range diffCases {
		add("diff_"+tc.name, tc.src, "")
	}
	for _, tc := range negCases {
		add("neg_"+tc.name, tc.src, "")
	}
	golden, _ := filepath.Glob(filepath.Join("testdata", "*.cl"))
	for _, f := range golden {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		add("golden_"+strings.TrimSuffix(filepath.Base(f), ".cl"), string(src), "")
	}
	seeds, _ := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzTransformEquivalence", "*"))
	for _, f := range seeds {
		add("seed_"+filepath.Base(f), fuzzSeedSource(t, f), "")
	}
	if len(golden) == 0 || len(seeds) == 0 {
		t.Fatal("transform golden or fuzz seed corpus missing")
	}
	return out
}

// fuzzSeedSource extracts the source argument of a committed
// FuzzTransformEquivalence corpus file.
func fuzzSeedSource(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if lit, ok := strings.CutPrefix(line, "string("); ok {
			src, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			return src
		}
	}
	t.Fatalf("%s: no string argument", path)
	return ""
}

// eachPass replays optimizeKernel's pipeline on a clone of k, calling
// check after every pass with the kernel state before and after it.
func eachPass(k *ir.Kernel, check func(p Pass, applied bool, before string, work *ir.Kernel)) {
	dump := func(k *ir.Kernel) string {
		b, err := backend.IRDump(k)
		if err != nil {
			return "irdump error: " + err.Error()
		}
		return string(b)
	}
	work := cloneKernel(k)
	for _, p := range passes {
		before := dump(work)
		applied := p.run(&passCtx{k: work, facts: dataflow.Analyze(work)})
		check(p, applied, before, work)
	}
}

// TestRefusalLeavesKernelUnchanged pins the rule optimizeKernel's fact
// reuse rests on: a pass that reports no change must not have touched
// the kernel at all.
func TestRefusalLeavesKernelUnchanged(t *testing.T) {
	for _, cp := range invariantCorpus(t) {
		for _, kn := range kernelNames(cp.prog) {
			eachPass(cp.prog.Kernels[kn], func(p Pass, applied bool, before string, work *ir.Kernel) {
				if applied {
					return
				}
				after, _ := backend.IRDump(work)
				if string(after) != before {
					t.Errorf("%s/%s: pass %s refused but changed the kernel", cp.name, kn, p.Name)
				}
			})
		}
	}
}

// slotViolations lists every register range k reads or writes outside
// its declared NumI/NumF banks.
func slotViolations(k *ir.Kernel) []string {
	var bad []string
	for i := range k.Code {
		in := &k.Code[i]
		check := func(what string, r ir.RegRef) {
			n := k.NumI
			if r.Bank == ir.BankF {
				n = k.NumF
			}
			if r.Slot < 0 || r.Width < 1 || int(r.Slot+r.Width) > n {
				bad = append(bad, fmt.Sprintf("instr %d %v %s bank %d slots [%d,%d) outside %d",
					i, in.Op, what, r.Bank, r.Slot, r.Slot+r.Width, n))
			}
		}
		if d, ok := ir.Def(in); ok {
			check("def", d)
		}
		ir.Uses(in, func(r ir.RegRef) { check("use", r) })
	}
	for _, p := range k.Params {
		n := k.NumI
		if p.Class == ir.ParamScalarF {
			n = k.NumF
		}
		if p.Slot < 0 || int(p.Slot) >= n {
			bad = append(bad, fmt.Sprintf("param %s slot %d outside %d", p.Name, p.Slot, n))
		}
	}
	return bad
}

// TestSlotBounds checks the invariant the dataflow engine's dense
// per-slot state is sized by: every register a kernel defines or uses
// lies inside its declared banks, both as compiled and after every
// transform pass (soa and vectorize allocate new registers).
func TestSlotBounds(t *testing.T) {
	report := func(where string, k *ir.Kernel) {
		for _, v := range slotViolations(k) {
			t.Errorf("%s: %s", where, v)
		}
	}
	for _, cp := range invariantCorpus(t) {
		for _, kn := range kernelNames(cp.prog) {
			k := cp.prog.Kernels[kn]
			report(cp.name+"/"+kn, k)
			eachPass(k, func(p Pass, _ bool, _ string, work *ir.Kernel) {
				report(cp.name+"/"+kn+" after "+p.Name, work)
			})
			out, _, err := OptimizeKernel(k, nil)
			if err != nil {
				t.Fatal(err)
			}
			report(cp.name+"/"+kn+" optimized", out)
		}
	}
}
