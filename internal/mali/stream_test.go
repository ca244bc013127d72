package mali_test

import (
	"reflect"
	"testing"

	"maligo/internal/cl"
	"maligo/internal/device"
	"maligo/internal/mali"
	"maligo/internal/mem"
)

// sweepSrc makes each work-item record iters loads over a 128 KiB
// input (larger than the 48 KiB L2), so its hit rate depends on the
// exact access order. Work-item 40 of group bad faults partway through.
const sweepSrc = `
__kernel void k(__global const float* q, __global float* p, const uint iters, const uint bad) {
    uint i = (uint)get_global_id(0);
    float acc = 0.0f;
    for (uint j = 0; j < iters; j++) {
        acc += q[(i * 7u + j * 64u) % 32768u];
    }
    if ((uint)get_group_id(0) == bad && get_local_id(0) == 40) {
        acc += p[i + 268435456u];
    }
    p[i] = acc;
}`

// runSweep enqueues sweepSrc on a fresh GPU at the given worker count
// and returns the report, the enqueue error and the GPU's L2 counters.
func runSweep(t *testing.T, workers, global, iters, bad int) (*device.Report, error, mem.CacheStats) {
	t.Helper()
	gpu := mali.New()
	ctx := cl.NewContextWith(cl.WithDevices(gpu), cl.WithWorkers(workers), cl.WithArenaBytes(16<<20))
	defer ctx.Close()
	prog := ctx.CreateProgramWithSource(sweepSrc)
	if err := prog.Build(""); err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("k")
	if err != nil {
		t.Fatal(err)
	}
	in, err := ctx.CreateBuffer(cl.MemReadOnly|cl.MemAllocHostPtr, 32768*4, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctx.CreateBuffer(cl.MemReadWrite|cl.MemAllocHostPtr, int64(global)*4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgBuffer(0, in); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgBuffer(1, out); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgInt(2, int64(iters)); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgInt(3, int64(bad)); err != nil {
		t.Fatal(err)
	}
	q := ctx.CreateCommandQueue(gpu)
	ev, err := q.EnqueueNDRangeKernel(k, 1, []int{global}, []int{64})
	if err != nil {
		return nil, err, gpu.L2Stats()
	}
	return ev.Report, nil, gpu.L2Stats()
}

// TestFaultLeavesSameL2AtEveryWorkerCount faults in group 3 of 16 and
// checks the L2 ends in the same state with and without the parallel
// engine: serial execution feeds groups 0-2 and group 3's accesses up
// to the fault into the cache model, so the parallel engine must too.
// With 4 iterations a group never fills a trace chunk; with 256 it
// streams.
func TestFaultLeavesSameL2AtEveryWorkerCount(t *testing.T) {
	for _, iters := range []int{4, 256} {
		_, serialErr, want := runSweep(t, 1, 16*64, iters, 3)
		if serialErr == nil {
			t.Fatalf("iters=%d: serial run did not fault", iters)
		}
		if want.Accesses == 0 {
			t.Fatalf("iters=%d: serial run left no L2 accesses", iters)
		}
		_, err, got := runSweep(t, 4, 16*64, iters, 3)
		if err == nil || err.Error() != serialErr.Error() {
			t.Fatalf("iters=%d: workers=4 error %v, serial %v", iters, err, serialErr)
		}
		if got != want {
			t.Errorf("iters=%d: L2 after fault: workers=4 %+v, workers=1 %+v", iters, got, want)
		}
	}
}

// TestStreamedGroupsBitIdentical runs one- and two-group kernels whose
// traces each fill many chunks, so their timing model is fed while
// they execute, and checks the report and the L2 match serial
// execution at every worker count.
func TestStreamedGroupsBitIdentical(t *testing.T) {
	for _, groups := range []int{1, 2} {
		want, err, wantL2 := runSweep(t, 1, groups*64, 1024, -1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4} {
			rep, err, l2 := runSweep(t, workers, groups*64, 1024, -1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rep, want) {
				t.Errorf("groups=%d workers=%d: report %+v, serial %+v", groups, workers, rep, want)
			}
			if l2 != wantL2 {
				t.Errorf("groups=%d workers=%d: L2 %+v, serial %+v", groups, workers, l2, wantL2)
			}
		}
	}
}
