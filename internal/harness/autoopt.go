package harness

import (
	"fmt"
	"strings"

	"maligo/internal/bench"
	"maligo/internal/clc"
	"maligo/internal/clc/opt"
	"maligo/internal/core"
)

// This file measures how much of the paper's §V hand-optimization win
// the automatic IR-to-IR transform pipeline (internal/clc/opt)
// recovers: each benchmark's *naive* OpenCL version runs as written
// and again through the transform pipeline, next to the paper's
// hand-optimized version. The interesting number is Recovery — the
// fraction of the hand-opt speedup the transforms reproduce without
// touching the source.

// AutoOptBench is the three-way timing of one benchmark's GPU
// versions.
type AutoOptBench struct {
	Name         string
	Passes       []string // transform passes that applied to the naive version
	NaiveSeconds float64  // OpenCL version, as written
	AutoSeconds  float64  // OpenCL version, transform pipeline applied
	HandSeconds  float64  // OpenCL Opt version, hand-optimized source
}

// AutoSpeedup is the transform pipeline's win over the naive version.
func (b AutoOptBench) AutoSpeedup() float64 {
	if b.AutoSeconds == 0 {
		return 0
	}
	return b.NaiveSeconds / b.AutoSeconds
}

// HandSpeedup is the paper's hand-optimization win over the naive
// version.
func (b AutoOptBench) HandSpeedup() float64 {
	if b.HandSeconds == 0 {
		return 0
	}
	return b.NaiveSeconds / b.HandSeconds
}

// Recovery is the fraction of the hand-optimization speedup the
// automatic transforms recover (0 when the pipeline refused, 1 when
// it matches the hand-optimized kernel, >1 when it beats it).
func (b AutoOptBench) Recovery() float64 {
	hand := b.HandSpeedup() - 1
	if hand <= 0 {
		return 0
	}
	return (b.AutoSpeedup() - 1) / hand
}

// AutoOptResult is the full auto-optimization leg.
type AutoOptResult struct {
	Benches []AutoOptBench
}

// gpuVersionSeconds runs one benchmark version on the Mali model and
// returns its simulated queue time, optionally routing the program
// through the transform pipeline first.
func gpuVersionSeconds(name string, v bench.Version, scale float64, optimize bool) (float64, []string, error) {
	b := bench.ByName(name)
	if b == nil {
		return 0, nil, fmt.Errorf("unknown benchmark %q", name)
	}
	irProg, err := clc.Compile("program.cl", b.Source(), bench.F32.BuildOptions())
	if err != nil {
		return 0, nil, err
	}
	var rep *opt.Report
	if optimize {
		irProg, rep = opt.Optimize(irProg)
	}
	p := core.NewPlatform()
	defer p.Close()
	prog := p.Context.CreateProgramFromIR(irProg, b.Source())
	if err := b.Setup(p.Context, bench.F32, scale); err != nil {
		return 0, nil, err
	}
	r, err := MeasureRegion(p.Context.CreateCommandQueue(p.GPU), b, prog, v, false)
	if err != nil {
		return 0, nil, err
	}
	if err := b.Verify(bench.F32); err != nil {
		return 0, nil, err
	}
	// A benchmark source carries every kernel variant; only credit
	// passes that rewrote a kernel this version actually launched.
	var passes []string
	if rep != nil {
		launched := map[string]bool{}
		for _, k := range r.Info.Kernels {
			launched[k] = true
		}
		for _, name := range opt.PassNames() {
			for _, res := range rep.Results {
				if res.Applied && res.Pass == name && launched[res.Kernel] {
					passes = append(passes, name)
					break
				}
			}
		}
	}
	return r.Activity.Seconds, passes, nil
}

// RunAutoOptAblation measures the three-way naive/auto/hand timing for
// every benchmark supporting both GPU versions at F32.
func RunAutoOptAblation(scale float64) (AutoOptResult, error) {
	var res AutoOptResult
	for _, name := range bench.Names() {
		b := bench.ByName(name)
		if ok, _ := b.Supported(bench.F32, bench.OpenCL); !ok {
			continue
		}
		if ok, _ := b.Supported(bench.F32, bench.OpenCLOpt); !ok {
			continue
		}
		naive, _, err := gpuVersionSeconds(name, bench.OpenCL, scale, false)
		if err != nil {
			return res, fmt.Errorf("%s naive: %w", name, err)
		}
		auto, passes, err := gpuVersionSeconds(name, bench.OpenCL, scale, true)
		if err != nil {
			return res, fmt.Errorf("%s auto: %w", name, err)
		}
		hand, _, err := gpuVersionSeconds(name, bench.OpenCLOpt, scale, false)
		if err != nil {
			return res, fmt.Errorf("%s hand: %w", name, err)
		}
		res.Benches = append(res.Benches, AutoOptBench{
			Name: name, Passes: passes,
			NaiveSeconds: naive, AutoSeconds: auto, HandSeconds: hand,
		})
	}
	return res, nil
}

// Render formats the auto-optimization leg as a table.
func (r AutoOptResult) Render() string {
	var b strings.Builder
	b.WriteString("Auto-optimization: §V transforms applied by the compiler\n")
	b.WriteString("========================================================\n")
	b.WriteString("naive OpenCL version, as written vs. through the transform\n")
	b.WriteString("pipeline, against the paper's hand-optimized version\n\n")
	fmt.Fprintf(&b, "%-6s %10s %10s %10s %7s %7s %9s  %s\n",
		"bench", "naive ms", "auto ms", "hand ms", "auto x", "hand x", "recovered", "passes")
	for _, be := range r.Benches {
		passes := "(none)"
		if len(be.Passes) > 0 {
			passes = strings.Join(be.Passes, ",")
		}
		fmt.Fprintf(&b, "%-6s %10.3f %10.3f %10.3f %7.2f %7.2f %8.0f%%  %s\n",
			be.Name, be.NaiveSeconds*1000, be.AutoSeconds*1000, be.HandSeconds*1000,
			be.AutoSpeedup(), be.HandSpeedup(), be.Recovery()*100, passes)
	}
	return b.String()
}
