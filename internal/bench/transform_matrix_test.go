package bench_test

import (
	"bytes"
	"testing"

	"maligo/internal/bench"
	"maligo/internal/cl"
	"maligo/internal/clc"
	"maligo/internal/clc/opt"
	"maligo/internal/cpu"
	"maligo/internal/mali"
	"maligo/internal/vm"
)

// runFromIR is runUnderEngine with an explicit pre-lowered program:
// the transform matrix feeds it either the plain compile or the
// transform-pipeline output, under any VM engine.
func runFromIR(t *testing.T, name string, prec bench.Precision, eng vm.Engine, optimized bool) engineRun {
	t.Helper()
	b := bench.ByName(name)
	if b == nil {
		t.Fatalf("unknown benchmark %q", name)
	}
	irProg, err := clc.Compile("program.cl", b.Source(), prec.BuildOptions())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if optimized {
		irProg, _ = opt.Optimize(irProg)
	}
	cpu1 := cpu.New(1)
	cpu2 := cpu.New(2)
	gpu := mali.New()
	ctx := cl.NewContextWith(
		cl.WithDevices(cpu1, cpu2, gpu),
		cl.WithWorkers(1),
		cl.WithEngine(eng),
	)
	defer ctx.Close()
	prog := ctx.CreateProgramFromIR(irProg, b.Source())
	if err := b.Setup(ctx, prec, testScale); err != nil {
		t.Fatalf("setup: %v", err)
	}
	queues := map[bench.Version]*cl.CommandQueue{
		bench.Serial:    ctx.CreateCommandQueue(cpu1),
		bench.OpenMP:    ctx.CreateCommandQueue(cpu2),
		bench.OpenCL:    ctx.CreateCommandQueue(gpu),
		bench.OpenCLOpt: ctx.CreateCommandQueue(gpu),
	}
	for _, v := range bench.Versions() {
		if ok, _ := b.Supported(prec, v); !ok {
			continue
		}
		if _, err := b.Run(queues[v], prog, v); err != nil {
			t.Fatalf("%s/%s/%s: %v", name, prec, v, err)
		}
		if err := b.Verify(prec); err != nil {
			t.Fatalf("%s/%s/%s verification: %v", name, prec, v, err)
		}
	}
	var run engineRun
	for _, v := range bench.Versions() {
		q := queues[v]
		for _, ev := range q.Events() {
			e := *ev
			e.HostSeconds = 0
			run.events = append(run.events, e)
		}
		run.timeline = append(run.timeline, q.Timeline()...)
	}
	run.arena = ctx.Arena().Snapshot()
	run.metrics = ctx.Metrics().Snapshot()
	return run
}

// TestTransformEngineMatrix is the transform engine's version of the
// engine differential: every benchmark runs through the full §V
// transform pipeline and then under both VM engines. Two
// contracts hold at once:
//
//  1. across engines, a transformed program's observables are
//     bit-identical (arena, events minus host time, metrics,
//     timeline) — the interpreter on transformed IR is the oracle;
//  2. across the transform boundary, the final memory image is
//     bit-identical to the untransformed interpreter run — transforms
//     may change timing, never results.
func TestTransformEngineMatrix(t *testing.T) {
	names := bench.Names()
	if testing.Short() {
		names = []string{"hist", "2dcon", "red"}
	}
	transformedAny := false
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			b := bench.ByName(name)
			irProg, err := clc.Compile("program.cl", b.Source(), bench.F32.BuildOptions())
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if _, rep := opt.Optimize(irProg); rep.Applied() {
				transformedAny = true
				t.Logf("passes applied: %v", rep.AppliedPasses())
			}

			plain := runFromIR(t, name, bench.F32, vm.EngineInterp, false)
			ref := runFromIR(t, name, bench.F32, vm.EngineInterp, true)
			if !bytes.Equal(plain.arena, ref.arena) {
				diff := -1
				for i := range plain.arena {
					if plain.arena[i] != ref.arena[i] {
						diff = i
						break
					}
				}
				t.Errorf("transformed results differ from untransformed (first at byte %d of %d)",
					diff, len(plain.arena))
			}
			got := runFromIR(t, name, bench.F32, vm.EngineCompiled, true)
			compareRuns(t, "compiled on transformed IR", ref, got, true)
		})
	}
	if !testing.Short() && !transformedAny {
		t.Error("no benchmark kernel was transformed; the matrix is vacuous")
	}
}
