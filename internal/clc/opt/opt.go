// Package opt is the IR-to-IR transform engine: it applies the source
// paper's Section V optimization techniques automatically, where the
// analyzer (internal/clc/analysis) only detects them.
//
// Each transform pass consumes the tier-2 dataflow facts
// (internal/clc/analysis/dataflow) of the current kernel, rewrites the
// kernel in place when its soundness conditions hold, and records an
// applicability Result either way — including the reason it refused,
// keyed to the analyzer pass whose diagnostic it answers. Facts are
// solved once per kernel and re-solved only after a pass rewrites
// code: a refusing pass leaves the kernel untouched, and a
// qualifier-only pass (constrestrict) changes nothing the facts read,
// so the next pass reuses the same facts. OptimizeSeeded goes further
// and starts from the facts the analyzer gate already solved for the
// same kernels, so a cold optimizing admission solves each kernel
// once. The pipeline order is fixed: qualifier promotion runs first
// so the vectorizer can rely on promoted restrict facts, the SoA
// relayout runs before vectorization so rewritten address chains are
// re-analyzed, and unrolling runs last on whatever loops remain.
//
// The correctness contract is absolute: a transformed kernel must
// produce bit-identical results to the untransformed kernel on every
// VM engine. Passes therefore refuse whenever a soundness condition
// cannot be *proved* from the dataflow facts; the differential suite
// and FuzzTransformEquivalence enforce the contract with the
// interpreter on untransformed IR as the oracle.
package opt

import (
	"fmt"
	"sort"
	"strings"

	"maligo/internal/clc/analysis/dataflow"
	"maligo/internal/clc/ir"
)

// Result is one pass's applicability report for one kernel. Applied
// passes record how many code sites they rewrote; refusals record
// why, so `clc -optimize` output reads as the transform-side answer
// to the analyzer's diagnostics.
type Result struct {
	Pass    string   `json:"pass"`
	Answers []string `json:"answers"` // analyzer passes this transform acts on
	Kernel  string   `json:"kernel"`
	Applied bool     `json:"applied"`
	Sites   int      `json:"sites"`
	Notes   []string `json:"notes,omitempty"`
}

// Report aggregates the per-kernel, per-pass results of one Optimize
// run over a program.
type Report struct {
	Results []Result `json:"results"`
}

// Applied reports whether any pass changed any kernel.
func (r *Report) Applied() bool {
	for _, res := range r.Results {
		if res.Applied {
			return true
		}
	}
	return false
}

// AppliedPasses returns the distinct applied pass names in pipeline
// order.
func (r *Report) AppliedPasses() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range passes {
		for _, res := range r.Results {
			if res.Applied && res.Pass == p.Name && !seen[p.Name] {
				seen[p.Name] = true
				out = append(out, p.Name)
			}
		}
	}
	return out
}

// ChangedKernels returns the names of kernels any pass rewrote,
// sorted.
func (r *Report) ChangedKernels() []string {
	seen := map[string]bool{}
	for _, res := range r.Results {
		if res.Applied {
			seen[res.Kernel] = true
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen { // maligo:allow maporder sorted on the next line
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// String renders the report in the single-line-per-result form used
// by `clc -optimize`.
func (r *Report) String() string {
	var b strings.Builder
	for _, res := range r.Results {
		verdict := "refused"
		if res.Applied {
			verdict = fmt.Sprintf("applied (%d sites)", res.Sites)
		}
		fmt.Fprintf(&b, "%s: [%s] %s", res.Kernel, res.Pass, verdict)
		if len(res.Notes) > 0 {
			fmt.Fprintf(&b, ": %s", strings.Join(res.Notes, "; "))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// passCtx is the per-pass view of one kernel. Facts describe the
// kernel as the pass finds it: they are re-solved after a pass rewrites
// code, so later passes see earlier rewrites, and shared across passes
// that refuse or only change qualifiers. mem is the memory
// classification of those facts, shared the same way.
type passCtx struct {
	k     *ir.Kernel
	facts *dataflow.Facts
	mem   map[int]memAttrib
	notes []string
	sites int
}

// memAttribs returns classifyMem for the pass's facts, computed once
// per facts value.
func (c *passCtx) memAttribs() map[int]memAttrib {
	if c.mem == nil {
		c.mem = classifyMem(c.k, c.facts)
	}
	return c.mem
}

func (c *passCtx) note(format string, args ...any) {
	c.notes = append(c.notes, fmt.Sprintf(format, args...))
}

// Pass is one registered transform.
type Pass struct {
	Name    string
	Doc     string
	Answers []string // analyzer pass names whose findings this transform applies

	// run rewrites c.k in place and reports whether it changed it. A
	// pass that returns false must leave the kernel exactly as it found
	// it (TestRefusalLeavesKernelUnchanged): the pipeline hands the
	// same facts to the next pass. After a pass that returns true, the
	// next pass gets freshly solved facts, unless qualifiersOnly.
	run func(c *passCtx) bool

	// qualifiersOnly declares that run changes only parameter
	// qualifiers and the kernel's qualifier counters, never code. The
	// dataflow reads neither, so the facts outlive the pass even when
	// it applies (TestQualifierPassKeepsFacts,
	// TestQualifierOnlyDeclarations).
	qualifiersOnly bool
}

// passes is the registry in pipeline order. Qualifier promotion runs
// first (the vectorizer's aliasing rules trust promoted restrict),
// SoA before vectorize (relayout rewrites address chains the
// vectorizer then re-analyzes), unroll last.
var passes = []Pass{
	{
		Name:    "constrestrict",
		Doc:     "promote const/restrict on __global pointer params the dataflow proves unwritten/unaliased (§V-D)",
		Answers: []string{"constparam", "restrictparam"},
		run:     runConstRestrict,

		qualifiersOnly: true,
	},
	{
		Name:    "soa",
		Doc:     "relayout in-kernel AoS scratch arrays to SoA when every access is provably decomposable (§V-C)",
		Answers: []string{"soa"},
		run:     runSoA,
	},
	{
		Name:    "vectorize",
		Doc:     "widen unit-stride scalar loops to 4 lanes with a scalar remainder loop (§V-B)",
		Answers: []string{"vectorize"},
		run:     runVectorize,
	},
	{
		Name:    "unroll",
		Doc:     "fully unroll short constant-trip loops inside the register budget (§V-E)",
		Answers: []string{"unroll", "regbudget"},
		run:     runUnroll,
	},
}

// Passes returns the registry in pipeline order.
func Passes() []Pass { return append([]Pass(nil), passes...) }

// PassNames returns the registered pass names in pipeline order.
func PassNames() []string {
	names := make([]string, len(passes))
	for i, p := range passes {
		names[i] = p.Name
	}
	return names
}

func selectPasses(only []string) ([]Pass, error) {
	if only == nil {
		return passes, nil
	}
	want := map[string]bool{}
	for _, n := range only {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		found := false
		for _, p := range passes {
			if p.Name == n {
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("opt: unknown pass %q (have %s)", n, strings.Join(PassNames(), ", "))
		}
		want[n] = true
	}
	var sel []Pass
	for _, p := range passes {
		if want[p.Name] {
			sel = append(sel, p)
		}
	}
	return sel, nil
}

// Optimize runs the full pipeline over every kernel of p. The input
// program is never mutated: changed kernels are deep-cloned first,
// and when no pass applies the original *ir.Program is returned
// unchanged (pointer-identical).
func Optimize(p *ir.Program) (*ir.Program, *Report) {
	out, rep, err := OptimizeWith(p, nil)
	if err != nil { // unreachable: nil selects every pass
		panic(err)
	}
	return out, rep
}

// OptimizeWith runs only the named passes (nil means all) over every
// kernel of p, in pipeline order regardless of the order names are
// given in.
func OptimizeWith(p *ir.Program, only []string) (*ir.Program, *Report, error) {
	sel, err := selectPasses(only)
	if err != nil {
		return nil, nil, err
	}
	out, rep := optimizeProgram(p, sel, nil)
	return out, rep, nil
}

// OptimizeSeeded is Optimize starting from already-solved dataflow
// facts, keyed by kernel name, as analysis.AnalyzeFacts returns them
// for the program it compiled. Each seed must describe p's kernel as
// it is; a kernel without a seed is solved here. The output and the
// report are identical to Optimize's (TestSeededMatchesFresh).
func OptimizeSeeded(p *ir.Program, seeds map[string]*dataflow.Facts) (*ir.Program, *Report) {
	return optimizeProgram(p, passes, seeds)
}

func optimizeProgram(p *ir.Program, sel []Pass, seeds map[string]*dataflow.Facts) (*ir.Program, *Report) {
	rep := &Report{}
	changed := map[string]*ir.Kernel{}
	for _, name := range sortedKernelNames(p) {
		k2, results := optimizeKernel(p.Kernels[name], sel, seeds[name])
		rep.Results = append(rep.Results, results...)
		if k2 != p.Kernels[name] {
			changed[name] = k2
		}
	}
	if len(changed) == 0 {
		return p, rep
	}
	out := &ir.Program{
		Kernels:      make(map[string]*ir.Kernel, len(p.Kernels)),
		ConstantData: p.ConstantData,
		Source:       p.Source,
	}
	for name, k := range p.Kernels { // maligo:allow maporder distinct keys fill the output map
		if k2, ok := changed[name]; ok {
			out.Kernels[name] = k2
		} else {
			out.Kernels[name] = k
		}
	}
	return out, rep
}

// OptimizeKernel runs the named passes (nil means all) over a single
// kernel. The input kernel is never mutated; when no pass applies the
// original pointer is returned.
func OptimizeKernel(k *ir.Kernel, only []string) (*ir.Kernel, []Result, error) {
	sel, err := selectPasses(only)
	if err != nil {
		return nil, nil, err
	}
	k2, results := optimizeKernel(k, sel, nil)
	return k2, results, nil
}

// optimizeKernel runs sel over a clone of k. seed, when non-nil, is
// the solved facts of k itself; the pipeline rebinds them to the clone
// instead of solving it again.
func optimizeKernel(k *ir.Kernel, sel []Pass, seed *dataflow.Facts) (*ir.Kernel, []Result) {
	work := cloneKernel(k)
	var results []Result
	any := false
	var facts *dataflow.Facts // nil once a pass has rewritten code
	if seed != nil {
		facts = seed.Rebind(work)
	}
	var mem map[int]memAttrib // classifyMem of facts, once a pass needed it
	for _, p := range sel {
		if facts == nil {
			facts, mem = dataflow.Analyze(work), nil
		}
		c := &passCtx{k: work, facts: facts, mem: mem}
		applied := p.run(c)
		if applied && !p.qualifiersOnly {
			facts = nil
		}
		mem = c.mem
		any = any || applied
		results = append(results, Result{
			Pass:    p.Name,
			Answers: append([]string(nil), p.Answers...),
			Kernel:  k.Name,
			Applied: applied,
			Sites:   c.sites,
			Notes:   c.notes,
		})
	}
	if !any {
		return k, results
	}
	// Canonicalize the rewritten kernel with the same fold+DCE pass
	// lowering runs, so transformed IR meets every invariant the
	// execution engines assume.
	ir.Optimize(work)
	return work, results
}

func sortedKernelNames(p *ir.Program) []string {
	names := make([]string, 0, len(p.Kernels))
	for n := range p.Kernels { // maligo:allow maporder sorted on the next line
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
