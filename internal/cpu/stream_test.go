package cpu_test

import (
	"fmt"
	"reflect"
	"testing"

	"maligo/internal/cl"
	"maligo/internal/cpu"
	"maligo/internal/device"
	"maligo/internal/mem"
)

// loopSrc is the OpenMP shape: one work-item per group, each looping
// over n strided loads from a 256 KiB input (larger than the 192 KiB
// L2). Thread bad faults halfway through its loop.
const loopSrc = `
__kernel void k(__global const float* q, __global float* p, const uint n, const uint bad) {
    uint t = (uint)get_global_id(0);
    float acc = 0.0f;
    for (uint j = 0; j < n; j++) {
        uint idx = (t * 7919u + j * 16u) % 65536u;
        acc += q[idx];
        if (t == bad && j == n / 2u) {
            acc += q[idx + 268435456u];
        }
    }
    p[t] = acc;
}`

// loopEnv is one compiled loopSrc on a fresh two-core CPU.
type loopEnv struct {
	dev *cpu.CPU
	ctx *cl.Context
	k   *cl.Kernel
}

func newLoopEnv(tb testing.TB, workers, threads, n, bad int) *loopEnv {
	tb.Helper()
	dev := cpu.New(2)
	ctx := cl.NewContextWith(cl.WithDevices(dev), cl.WithWorkers(workers), cl.WithArenaBytes(16<<20))
	prog := ctx.CreateProgramWithSource(loopSrc)
	if err := prog.Build(""); err != nil {
		tb.Fatal(err)
	}
	k, err := prog.CreateKernel("k")
	if err != nil {
		tb.Fatal(err)
	}
	in, err := ctx.CreateBuffer(cl.MemReadOnly|cl.MemAllocHostPtr, 65536*4, nil)
	if err != nil {
		tb.Fatal(err)
	}
	out, err := ctx.CreateBuffer(cl.MemReadWrite|cl.MemAllocHostPtr, int64(threads)*4, nil)
	if err != nil {
		tb.Fatal(err)
	}
	for i, set := range []error{
		k.SetArgBuffer(0, in), k.SetArgBuffer(1, out),
		k.SetArgInt(2, int64(n)), k.SetArgInt(3, int64(bad)),
	} {
		if set != nil {
			tb.Fatalf("arg %d: %v", i, set)
		}
	}
	return &loopEnv{dev: dev, ctx: ctx, k: k}
}

func (e *loopEnv) enqueue(threads int) (*device.Report, error) {
	q := e.ctx.CreateCommandQueue(e.dev)
	ev, err := q.EnqueueNDRangeKernel(e.k, 1, []int{threads}, []int{1})
	if err != nil {
		return nil, err
	}
	return ev.Report, nil
}

// runLoop enqueues loopSrc once at the given worker count and returns
// the report, the enqueue error and the L2 counters.
func runLoop(t *testing.T, workers, threads, n, bad int) (*device.Report, error, mem.CacheStats) {
	t.Helper()
	e := newLoopEnv(t, workers, threads, n, bad)
	defer e.ctx.Close()
	rep, err := e.enqueue(threads)
	return rep, err, e.dev.L2Stats()
}

// TestFaultLeavesSameL2AtEveryWorkerCount faults in thread 3 of 16 and
// checks the L2 ends in the same state with and without the parallel
// engine. n=8 keeps every group's trace within one chunk; n=20000
// makes each group stream.
func TestFaultLeavesSameL2AtEveryWorkerCount(t *testing.T) {
	for _, n := range []int{8, 20000} {
		_, serialErr, want := runLoop(t, 1, 16, n, 3)
		if serialErr == nil {
			t.Fatalf("n=%d: serial run did not fault", n)
		}
		if want.Accesses == 0 {
			t.Fatalf("n=%d: serial run left no L2 accesses", n)
		}
		_, err, got := runLoop(t, 4, 16, n, 3)
		if err == nil || err.Error() != serialErr.Error() {
			t.Fatalf("n=%d: workers=4 error %v, serial %v", n, err, serialErr)
		}
		if got != want {
			t.Errorf("n=%d: L2 after fault: workers=4 %+v, workers=1 %+v", n, got, want)
		}
	}
}

// TestStreamedGroupsBitIdentical runs the Serial and OpenMP shapes —
// one and two groups — with loops long enough that every group's
// trace fills many chunks, and checks the report and the L2 match
// serial execution at every worker count.
func TestStreamedGroupsBitIdentical(t *testing.T) {
	for _, threads := range []int{1, 2} {
		want, err, wantL2 := runLoop(t, 1, threads, 40000, -1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4} {
			rep, err, l2 := runLoop(t, workers, threads, 40000, -1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rep, want) {
				t.Errorf("threads=%d workers=%d: report %+v, serial %+v", threads, workers, rep, want)
			}
			if l2 != wantL2 {
				t.Errorf("threads=%d workers=%d: L2 %+v, serial %+v", threads, workers, l2, wantL2)
			}
		}
	}
}

// BenchmarkStreamedGroup is the Serial baseline's shape: one group
// whose trace streams into the timing model. At workers=2 the replay
// overlaps the VM; at workers=1 the VM drives the model directly.
func BenchmarkStreamedGroup(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e := newLoopEnv(b, workers, 1, 200000, -1)
			defer e.ctx.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.enqueue(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
