package cl_test

import (
	"reflect"
	"testing"

	"maligo/internal/cl"
	"maligo/internal/cpu"
	"maligo/internal/mali"
	"maligo/internal/vm"
)

// TestObserverHooksEngineIdentical verifies the trace-observer path of
// the fast engine: with race checking and hot-line profiling both
// enabled on the same queue (so the detailed trace fans out through
// device.FanObservers to a vm.RaceDetector and a vm.LineProfiler), the
// compiled engine must report the exact races and the exact per-line
// load/store profile the reference interpreter reports. The kernel
// races deliberately, so the race detector has observations to
// compare.
func TestObserverHooksEngineIdentical(t *testing.T) {
	type observed struct {
		dynamic []vm.DataRace
		top     []vm.LineStat
		bytes   uint64
	}
	run := func(eng vm.Engine) observed {
		t.Helper()
		gpu := mali.New()
		ctx := cl.NewContextWith(
			cl.WithDevices(gpu),
			cl.WithWorkers(1),
			cl.WithEngine(eng),
		)
		defer ctx.Close()
		prog := ctx.CreateProgramWithSource(raceCheckKernels)
		if err := prog.Build(""); err != nil {
			t.Fatalf("Build: %v\n%s", err, prog.BuildLog())
		}
		const n, local = 32, 16
		buf, err := ctx.CreateBuffer(cl.MemReadWrite|cl.MemAllocHostPtr, n*4, nil)
		if err != nil {
			t.Fatal(err)
		}
		k, err := prog.CreateKernel("shift")
		if err != nil {
			t.Fatal(err)
		}
		if err := k.SetArgBuffer(0, buf); err != nil {
			t.Fatal(err)
		}
		if err := k.SetArgLocal(1, (local+1)*4); err != nil {
			t.Fatal(err)
		}
		q := ctx.CreateCommandQueue(gpu)
		q.SetRaceCheck(true)
		q.SetLineProfile(true)
		ev, err := q.EnqueueNDRangeKernel(k, 1, []int{n}, []int{local})
		if err != nil {
			t.Fatal(err)
		}
		if ev.RaceCheck == nil {
			t.Fatal("race check enabled but event has no result")
		}
		return observed{
			dynamic: ev.RaceCheck.Dynamic,
			top:     q.LineProfile().Top(100),
			bytes:   q.LineProfile().TotalBytes(),
		}
	}

	ref := run(vm.EngineInterp)
	if len(ref.dynamic) == 0 {
		t.Fatal("interpreter observed no races; the kernel should race")
	}
	if len(ref.top) == 0 {
		t.Fatal("interpreter line profile is empty")
	}
	got := run(vm.EngineCompiled)
	if !reflect.DeepEqual(ref.dynamic, got.dynamic) {
		t.Errorf("race detector observations differ:\n interp:   %+v\n compiled: %+v", ref.dynamic, got.dynamic)
	}
	if !reflect.DeepEqual(ref.top, got.top) {
		t.Errorf("line profiles differ:\n interp:   %+v\n compiled: %+v", ref.top, got.top)
	}
	if ref.bytes != got.bytes {
		t.Errorf("profiled bytes differ: interp %d, compiled %d", ref.bytes, got.bytes)
	}
}

// TestObserverHooksEngineIdenticalCPU repeats the cross-check on the
// CPU device model, whose serial-groups path drives observers directly
// instead of through trace record/replay.
func TestObserverHooksEngineIdenticalCPU(t *testing.T) {
	run := func(eng vm.Engine) []vm.LineStat {
		t.Helper()
		dev := cpu.New(2)
		ctx := cl.NewContextWith(
			cl.WithDevices(dev),
			cl.WithWorkers(1),
			cl.WithEngine(eng),
		)
		defer ctx.Close()
		prog := ctx.CreateProgramWithSource(raceCheckKernels)
		if err := prog.Build(""); err != nil {
			t.Fatalf("Build: %v\n%s", err, prog.BuildLog())
		}
		const n, local = 32, 16
		buf, err := ctx.CreateBuffer(cl.MemReadWrite|cl.MemAllocHostPtr, n*4, nil)
		if err != nil {
			t.Fatal(err)
		}
		k, err := prog.CreateKernel("shift_fixed")
		if err != nil {
			t.Fatal(err)
		}
		if err := k.SetArgBuffer(0, buf); err != nil {
			t.Fatal(err)
		}
		if err := k.SetArgLocal(1, (local+1)*4); err != nil {
			t.Fatal(err)
		}
		q := ctx.CreateCommandQueue(dev)
		q.SetLineProfile(true)
		if _, err := q.EnqueueNDRangeKernel(k, 1, []int{n}, []int{local}); err != nil {
			t.Fatal(err)
		}
		return q.LineProfile().Top(100)
	}

	ref := run(vm.EngineInterp)
	if len(ref) == 0 {
		t.Fatal("interpreter line profile is empty")
	}
	if got := run(vm.EngineCompiled); !reflect.DeepEqual(ref, got) {
		t.Errorf("line profiles differ:\n interp:   %+v\n compiled: %+v", ref, got)
	}
}
