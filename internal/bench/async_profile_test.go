package bench_test

import (
	"bytes"
	"testing"
	"time"

	"maligo/internal/bench"
	"maligo/internal/cl"
	"maligo/internal/cpu"
	"maligo/internal/mali"
	"maligo/internal/vm"
)

// benchArenaBytes bounds the unified-memory arena for the comparison
// tests so whole-arena equality checks stay cheap. Generous for every
// benchmark at testScale.
const benchArenaBytes = 64 << 20

// runBenchQueues runs every supported version of one benchmark at one
// precision on a fresh context and returns the per-version queues
// (holding their event histories) and the context. lead, when non-nil,
// enqueues a command on each version's queue ahead of the benchmark.
func runBenchQueues(t *testing.T, name string, prec bench.Precision, engine vm.Engine, lead func(*cl.Context, *cl.CommandQueue)) (map[bench.Version]*cl.CommandQueue, *cl.Context) {
	t.Helper()
	b := bench.ByName(name)
	if b == nil {
		t.Fatalf("unknown benchmark %q", name)
	}
	cpu1 := cpu.New(1)
	cpu2 := cpu.New(2)
	gpu := mali.New()
	ctx := cl.NewContextWith(
		cl.WithDevices(cpu1, cpu2, gpu),
		cl.WithArenaBytes(benchArenaBytes),
		cl.WithEngine(engine),
	)
	t.Cleanup(ctx.Close)
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
		if lead != nil {
			lead(ctx, queues[v])
		}
		if _, err := b.Run(queues[v], prog, v); err != nil {
			t.Fatalf("%s: %v", v, err)
		}
	}
	return queues, ctx
}

// TestEventProfilingMonotonic asserts the OpenCL profiling invariant
// QUEUED <= SUBMIT <= START <= END for every event of every benchmark
// on both VM execution engines, and that events tile each in-order
// queue's clock without gaps or overlaps.
func TestEventProfilingMonotonic(t *testing.T) {
	engines := []struct {
		name string
		e    vm.Engine
	}{
		{"interp", vm.EngineInterp},
		{"compiled", vm.EngineCompiled},
	}
	for _, eng := range engines {
		eng := eng
		t.Run(eng.name, func(t *testing.T) {
			for _, name := range bench.Names() {
				name := name
				t.Run(name, func(t *testing.T) {
					queues, _ := runBenchQueues(t, name, bench.F32, eng.e, nil)
					checked := 0
					for v, q := range queues {
						prevEnd := 0.0
						for i, ev := range q.Events() {
							if ev.Queued > ev.Submitted || ev.Submitted > ev.Started || ev.Started > ev.Ended {
								t.Errorf("%s event %d (%s): non-monotone stamps %g/%g/%g/%g",
									v, i, ev.Kind, ev.Queued, ev.Submitted, ev.Started, ev.Ended)
							}
							if ev.Queued != prevEnd {
								t.Errorf("%s event %d (%s): QUEUED %g != previous END %g",
									v, i, ev.Kind, ev.Queued, prevEnd)
							}
							prevEnd = ev.Ended
							checked++
						}
					}
					if checked == 0 {
						t.Fatal("no events recorded")
					}
				})
			}
		})
	}
}

// TestAsyncBenchmarksBitIdentical runs every benchmark behind a marker
// on each queue, twice: once with a plain marker, and once with a
// marker that waits on a user event the host signals 10 ms later, so
// the benchmark's first command is enqueued behind a pending scheduled
// command and runs on the scheduler before the rest continue inline.
// Both runs must agree bit for bit: the same event histories
// (profiling stamps, durations, kinds) and the same unified-memory
// arena bytes — which queue path a command takes changes no simulated
// observable, so every §V figure is unchanged.
func TestAsyncBenchmarksBitIdentical(t *testing.T) {
	marker := func(gated bool) func(*cl.Context, *cl.CommandQueue) {
		return func(ctx *cl.Context, q *cl.CommandQueue) {
			var wait []*cl.Event
			if gated {
				gate, err := ctx.CreateUserEvent("gate")
				if err != nil {
					t.Fatal(err)
				}
				time.AfterFunc(10*time.Millisecond, func() { _ = gate.SetComplete() })
				wait = []*cl.Event{gate}
			}
			if _, err := q.EnqueueMarkerWithWaitList(wait); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, name := range bench.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			syncQs, syncCtx := runBenchQueues(t, name, bench.F32, vm.EngineAuto, marker(false))
			asyncQs, asyncCtx := runBenchQueues(t, name, bench.F32, vm.EngineAuto, marker(true))
			for _, v := range bench.Versions() {
				se := syncQs[v].Events()
				ae := asyncQs[v].Events()
				if len(se) != len(ae) {
					t.Fatalf("%s: event counts differ: sync %d async %d", v, len(se), len(ae))
				}
				for i := range se {
					s, a := se[i], ae[i]
					if s.Kind != a.Kind || s.Name != a.Name || s.Seq != a.Seq || s.Bytes != a.Bytes {
						t.Errorf("%s event %d identity differs: sync %s/%s async %s/%s",
							v, i, s.Kind, s.Name, a.Kind, a.Name)
					}
					if s.Queued != a.Queued || s.Submitted != a.Submitted ||
						s.Started != a.Started || s.Ended != a.Ended || s.Seconds != a.Seconds {
						t.Errorf("%s event %d (%s): stamps sync %g/%g/%g/%g async %g/%g/%g/%g",
							v, i, s.Kind, s.Queued, s.Submitted, s.Started, s.Ended,
							a.Queued, a.Submitted, a.Started, a.Ended)
					}
					if (s.Report == nil) != (a.Report == nil) {
						t.Fatalf("%s event %d: report presence differs", v, i)
					}
					if s.Report != nil && *s.Report != *a.Report {
						t.Errorf("%s event %d: device reports differ", v, i)
					}
				}
			}
			if !bytes.Equal(syncCtx.Arena().Snapshot(), asyncCtx.Arena().Snapshot()) {
				t.Error("arena bytes differ between sync and async runs")
			}
		})
	}
}
