// Package analysis is the kernel static-analysis subsystem: a
// pass-based linter that runs over the typed AST and lowered IR
// produced by clc.CompileArtifacts and reports Mali-specific
// optimization opportunities and portability bugs as structured
// diagnostics.
//
// The passes encode the optimization techniques of the source paper
// (Grasso et al., "Energy Efficient HPC on Embedded SoCs:
// Optimization Techniques for Mali GPU", §V) as machine-checkable
// rules — vectorization of scalar global loads, const/restrict
// pointer annotations, avoidance of host-side buffer copies on the
// unified-memory SoC, SoA data layout, loop unrolling and register
// budgeting — plus correctness checks that catch barrier divergence,
// statically provable intra-work-group data races and out-of-bounds
// constant indices before a kernel ever runs.
//
// Diagnostics can be suppressed per kernel with a directive comment
// placed above the kernel definition:
//
//	// maligo:allow vectorize,unroll scalar baseline on purpose
//	__kernel void vec_serial(...)
//
// The first whitespace-delimited token after "maligo:allow" is a
// comma-separated list of pass names; the rest of the line is a
// free-form reason.
package analysis

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"maligo/internal/clc"
	"maligo/internal/clc/analysis/dataflow"
	"maligo/internal/clc/ast"
	"maligo/internal/clc/ir"
	"maligo/internal/clc/sema"
	"maligo/internal/clc/token"
)

// Severity classifies how serious a diagnostic is.
type Severity int

// Severity levels. Info is advisory, Warning flags a likely
// performance problem, Error flags a correctness bug.
const (
	Info Severity = iota
	Warning
	Error
)

func (s Severity) String() string {
	switch s {
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return "info"
}

// MarshalJSON renders the severity as its lowercase name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// ParseSeverity converts a severity name back to its value.
func ParseSeverity(name string) (Severity, error) {
	switch name {
	case "info":
		return Info, nil
	case "warning":
		return Warning, nil
	case "error":
		return Error, nil
	}
	return Info, fmt.Errorf("unknown severity %q", name)
}

// Diagnostic is one finding of one pass.
type Diagnostic struct {
	File   string
	Pos    token.Pos
	Sev    Severity
	Pass   string
	Kernel string
	Msg    string
	Hint   string
}

// MarshalJSON flattens the position into line/col keys so JSON
// consumers don't depend on the token package's field names.
func (d Diagnostic) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		File    string   `json:"file"`
		Line    int      `json:"line"`
		Col     int      `json:"col"`
		Sev     Severity `json:"severity"`
		Pass    string   `json:"pass"`
		Kernel  string   `json:"kernel,omitempty"`
		Message string   `json:"message"`
		Hint    string   `json:"hint,omitempty"`
	}{d.File, d.Pos.Line, d.Pos.Col, d.Sev, d.Pass, d.Kernel, d.Msg, d.Hint})
}

// String renders the diagnostic in the canonical single-line form
// "file:line:col: severity: [pass] message (hint)".
func (d Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:%s: %s: [%s] %s", d.File, d.Pos, d.Sev, d.Pass, d.Msg)
	if d.Hint != "" {
		fmt.Fprintf(&b, " (%s)", d.Hint)
	}
	return b.String()
}

// Context is the per-kernel view handed to each pass.
type Context struct {
	File string
	Fn   *ast.FuncDecl // the kernel being analyzed
	IR   *ir.Kernel    // lowered form of the same kernel
	Sema *sema.Result

	pass      string
	sink      *[]Diagnostic
	facts     *dataflow.Facts
	factsDone bool
	trips     map[int]int64 // irTripByLine's result; nil until first use
}

// Facts lazily runs the tier-2 dataflow engine over the kernel's IR.
// The result is shared by every pass analyzing this kernel, and
// AnalyzeFacts hands it on so the transform pipeline starts from it
// instead of solving the same kernel again. Returns nil when no IR is
// available.
func (c *Context) Facts() *dataflow.Facts {
	if !c.factsDone {
		c.factsDone = true
		if c.IR != nil {
			c.facts = dataflow.Analyze(c.IR)
		}
	}
	return c.facts
}

// Report emits a diagnostic attributed to the running pass.
func (c *Context) Report(sev Severity, pos token.Pos, msg, hint string) {
	*c.sink = append(*c.sink, Diagnostic{
		File:   c.File,
		Pos:    pos,
		Sev:    sev,
		Pass:   c.pass,
		Kernel: c.Fn.Name,
		Msg:    msg,
		Hint:   hint,
	})
}

// Pass is one registered analysis.
type Pass struct {
	Name string
	Doc  string // one-line description shown by clc -analyze -passes
	Run  func(*Context)
}

// passes is the registry, in fixed documentation order: performance
// lints first, correctness checks last.
var passes = []Pass{
	{"vectorize", "scalar global-memory accesses in a unit-stride loop that vloadN/vstoreN would coalesce (§V-B)", passVectorize},
	{"constparam", "read-only __global pointer parameters missing const (§V-D)", passConstParam},
	{"restrictparam", "aliasing-prone __global pointer parameters missing restrict (§V-D)", passRestrictParam},
	{"copyprivate", "element-wise staging of __global data into private arrays, redundant on a unified-memory SoC (§V-A)", passCopyPrivate},
	{"soa", "constant-strided global accesses indicating an AoS layout where SoA would coalesce (§V-C)", passSoA},
	{"unroll", "short constant-trip-count loops worth unrolling (§V-E)", passUnroll},
	{"regbudget", "estimated register demand exceeding the per-thread budget, the paper's CL_OUT_OF_RESOURCES failure (§V-B)", passRegBudget},
	{"barrierdiv", "barrier() reached under work-item-dependent control flow", passBarrierDiv},
	{"race", "statically provable intra-work-group conflicts on __local/__global memory", passRace},
	{"bounds", "constant array indices that are out of bounds", passBounds},
}

// Passes returns the registry in run order.
func Passes() []Pass { return passes }

// PassNames returns the registered pass names in run order.
func PassNames() []string {
	names := make([]string, len(passes))
	for i, p := range passes {
		names[i] = p.Name
	}
	return names
}

// Analyze runs every pass over every kernel of a compiled unit and
// returns the surviving diagnostics deduplicated and sorted by
// position. Suppression directives in the source remove matching
// diagnostics per kernel.
func Analyze(art *clc.Artifacts) []Diagnostic {
	return AnalyzePasses(art, nil)
}

// AnalyzePasses is Analyze restricted to a subset of passes by name.
// A nil or empty subset runs everything. Unknown names are ignored
// here; callers validate with PassNames.
func AnalyzePasses(art *clc.Artifacts, only []string) []Diagnostic {
	diags, _ := analyze(art, only)
	return diags
}

// AnalyzeFacts is Analyze that also returns, per kernel name, the
// tier-2 dataflow facts its passes solved over art.Prog's kernels.
// A kernel no pass solved for is absent. The facts describe art.Prog
// as compiled; opt.OptimizeSeeded starts its pipeline from them.
func AnalyzeFacts(art *clc.Artifacts) ([]Diagnostic, map[string]*dataflow.Facts) {
	return analyze(art, nil)
}

func analyze(art *clc.Artifacts, only []string) ([]Diagnostic, map[string]*dataflow.Facts) {
	want := map[string]bool{}
	for _, n := range only {
		want[n] = true
	}
	var diags []Diagnostic
	facts := map[string]*dataflow.Facts{}
	for _, fn := range art.Sema.Kernels {
		ctx := &Context{
			File: art.Name,
			Fn:   fn,
			IR:   art.Prog.Kernel(fn.Name),
			Sema: art.Sema,
			sink: &diags,
		}
		for _, p := range passes {
			if len(want) > 0 && !want[p.Name] {
				continue
			}
			ctx.pass = p.Name
			p.Run(ctx)
		}
		if ctx.facts != nil {
			facts[fn.Name] = ctx.facts
		}
	}
	diags = applySuppressions(art, diags)
	return dedupeSort(diags), facts
}

// dedupeSort imposes the canonical diagnostic order — position, then
// severity (most severe first), then pass, kernel and message — and
// drops exact duplicates, which arise when several passes (or one pass
// reached through two inlined call sites) converge on the same finding
// at the same position.
func dedupeSort(diags []Diagnostic) []Diagnostic {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Sev != b.Sev {
			return a.Sev > b.Sev
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		if a.Kernel != b.Kernel {
			return a.Kernel < b.Kernel
		}
		return a.Msg < b.Msg
	})
	kept := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

// AnalyzeSourcePasses is AnalyzeSource restricted to a subset of
// passes by name (nil runs everything).
func AnalyzeSourcePasses(name, src, options string, only []string) ([]Diagnostic, error) {
	art, err := clc.CompileArtifacts(name, src, options)
	if err != nil {
		return nil, err
	}
	return AnalyzePasses(art, only), nil
}

// AnalyzeSource compiles OpenCL C source and analyzes it in one step.
// Compilation errors are returned as-is; they are not diagnostics.
func AnalyzeSource(name, src, options string) ([]Diagnostic, error) {
	art, err := clc.CompileArtifacts(name, src, options)
	if err != nil {
		return nil, err
	}
	return Analyze(art), nil
}

// applySuppressions drops diagnostics matched by maligo:allow
// directives. A directive suppresses the listed passes for the first
// kernel defined at or after the directive's line.
func applySuppressions(art *clc.Artifacts, diags []Diagnostic) []Diagnostic {
	allows := parseAllows(art.Source)
	if len(allows) == 0 {
		return diags
	}
	// Kernel definition lines in source order.
	type span struct {
		name string
		line int
	}
	var kernels []span
	for _, fn := range art.Sema.Kernels {
		kernels = append(kernels, span{fn.Name, fn.Pos().Line})
	}
	sort.Slice(kernels, func(i, j int) bool { return kernels[i].line < kernels[j].line })

	suppressed := make(map[string]map[string]bool) // kernel -> pass set
	for _, a := range allows {
		target := ""
		for _, k := range kernels {
			if k.line >= a.line {
				target = k.name
				break
			}
		}
		if target == "" {
			continue
		}
		set := suppressed[target]
		if set == nil {
			set = make(map[string]bool)
			suppressed[target] = set
		}
		for _, p := range a.passes {
			set[p] = true
		}
	}

	kept := diags[:0]
	for _, d := range diags {
		if suppressed[d.Kernel][d.Pass] {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

type allowDirective struct {
	line   int
	passes []string
}

// parseAllows scans preprocessed source for maligo:allow directives.
// The preprocessor preserves comments and line structure, so directive
// line numbers match parser positions.
func parseAllows(src string) []allowDirective {
	const marker = "maligo:allow"
	var out []allowDirective
	for i, line := range strings.Split(src, "\n") {
		at := strings.Index(line, marker)
		if at < 0 {
			continue
		}
		rest := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(line[at+len(marker):]), "*/"))
		if rest == "" {
			continue
		}
		list := strings.Fields(rest)[0]
		var names []string
		for _, n := range strings.Split(list, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		if len(names) > 0 {
			out = append(out, allowDirective{line: i + 1, passes: names})
		}
	}
	return out
}

// Format renders diagnostics one per line in canonical form.
func Format(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatJSON renders diagnostics as an indented JSON array.
func FormatJSON(diags []Diagnostic) ([]byte, error) {
	if diags == nil {
		diags = []Diagnostic{}
	}
	return json.MarshalIndent(diags, "", "  ")
}

// MaxSeverity returns the highest severity present, or Info for an
// empty list.
func MaxSeverity(diags []Diagnostic) Severity {
	max := Info
	for _, d := range diags {
		if d.Sev > max {
			max = d.Sev
		}
	}
	return max
}
