package bench_test

import (
	"testing"

	"maligo/internal/bench"
	"maligo/internal/cl"
	"maligo/internal/cpu"
	"maligo/internal/mali"
	"maligo/internal/obs"
	"maligo/internal/platform"
	"maligo/internal/vm"
)

// engineRun captures every externally observable artifact of running
// one benchmark configuration: the final unified-memory image, the
// profiling events of all queues, the metrics registry snapshot and
// the exported timeline spans.
type engineRun struct {
	arena    []byte
	events   []cl.Event
	metrics  obs.Snapshot
	timeline []obs.Span
}

// runUnderEngine executes every supported version of one benchmark at
// one precision with the given VM engine and returns the full
// observable state. Workers is pinned to 1 for both engines so host
// scheduling cannot perturb the worker-pool gauges; engine choice must
// be the only variable.
func runUnderEngine(t *testing.T, name string, prec bench.Precision, eng vm.Engine) engineRun {
	t.Helper()
	return runUnderEngineOn(t, platform.Default(), 1, name, prec, eng)
}

// runUnderEngineOn is runUnderEngine on an arbitrary registered board
// model and host worker count — the fleet differential suite's probe.
func runUnderEngineOn(t *testing.T, soc *platform.SoC, workers int, name string, prec bench.Precision, eng vm.Engine) engineRun {
	t.Helper()
	b := bench.ByName(name)
	if b == nil {
		t.Fatalf("unknown benchmark %q", name)
	}
	cpu1 := cpu.NewOn(soc, 1)
	cpu2 := cpu.NewOn(soc, soc.CPU.Cores)
	gpu := mali.NewOn(soc)
	ctx := cl.NewContextWith(
		cl.WithDevices(cpu1, cpu2, gpu),
		cl.WithWorkers(workers),
		cl.WithEngine(eng),
	)
	defer ctx.Close()
	prog := ctx.CreateProgramWithSource(b.Source())
	if err := prog.Build(prec.BuildOptions()); err != nil {
		t.Fatalf("build: %v", err)
	}
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
			// Host wall-clock is the one deliberately nondeterministic
			// field (and the only thing the engines may change).
			e.HostSeconds = 0
			run.events = append(run.events, e)
		}
		run.timeline = append(run.timeline, q.Timeline()...)
	}
	run.arena = ctx.Arena().Snapshot()
	run.metrics = ctx.Metrics().Snapshot()
	return run
}

// TestEngineDifferential runs the full benchmark matrix — every
// benchmark, every supported version, both precisions — once under the
// reference interpreter and once under the compiled engine, and
// requires every observable to be bit-identical: buffer contents,
// event timestamps and device reports, metrics counters and the
// exported trace timeline. The interpreter is the oracle; any
// divergence is a compiled-engine bug.
func TestEngineDifferential(t *testing.T) {
	names := bench.Names()
	precs := []bench.Precision{bench.F32, bench.F64}
	if testing.Short() {
		// Keep a cross-section with atomics (hist), barriers/local
		// memory (2dcon) and multi-pass reductions (red).
		names = []string{"hist", "2dcon", "red"}
		precs = []bench.Precision{bench.F32}
	}
	for _, name := range names {
		for _, prec := range precs {
			name, prec := name, prec
			t.Run(name+"/"+prec.String(), func(t *testing.T) {
				ref := runUnderEngine(t, name, prec, vm.EngineInterp)
				got := runUnderEngine(t, name, prec, vm.EngineCompiled)
				compareRuns(t, "compiled", ref, got, true)
			})
		}
	}
}
