package cl_test

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"time"

	"maligo/internal/cl"
	"maligo/internal/clc"
	"maligo/internal/device"
	"maligo/internal/mali"
)

// burnKernel runs long enough (many groups x a hot inner loop) that
// Close reliably lands while the NDRange body is still executing.
const burnKernel = `
__kernel void burn(__global float* x, const uint iters, const uint n) {
    size_t i = get_global_id(0);
    if (i < n) {
        float v = x[i];
        for (uint it = 0u; it < iters; it++) {
            v = v * 1.0000001f + 0.5f;
        }
        x[i] = v;
    }
}
`

// TestCloseFailsInFlightAsyncJob is the regression test for the
// Close-vs-in-flight-async stall: Context.Close used to wait for the
// running command body to finish naturally, so a long NDRange stalled
// Close (and with it FinishCtx) for its full duration. Close now
// cancels the body's context with cause ErrContextClosed and the
// device layer aborts between work-groups: the job fails with the
// typed error and Close returns promptly.
func TestCloseFailsInFlightAsyncJob(t *testing.T) {
	gpu := mali.New()
	ctx := cl.NewContextWith(cl.WithDevices(gpu), cl.WithWorkers(2))

	prog := ctx.CreateProgramWithSource(burnKernel)
	if err := prog.Build(""); err != nil {
		t.Fatalf("Build: %v\n%s", err, prog.BuildLog())
	}
	k, err := prog.CreateKernel("burn")
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 18
	buf, err := ctx.CreateBuffer(cl.MemReadWrite, int64(n*4), nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := buf.Bytes(0, int64(n*4))
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(raw[i*4:], math.Float32bits(1))
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(k.SetArgBuffer(0, buf))
	must(k.SetArgInt(1, 4096)) // hot inner loop: seconds of work if not cancelled
	must(k.SetArgInt(2, n))

	q := ctx.CreateCommandQueue(gpu)
	ev, err := q.EnqueueNDRangeKernelAsync(k, 1, []int{n}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let the body start executing

	done := make(chan struct{})
	start := time.Now()
	go func() {
		ctx.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Context.Close stalled on the in-flight async job")
	}
	t.Logf("Close returned after %v", time.Since(start))

	werr := ev.Wait()
	if werr == nil {
		t.Skip("job completed before Close; cancellation not exercised on this host")
	}
	if !errors.Is(werr, cl.ErrContextClosed) {
		t.Fatalf("in-flight job error = %v, want errors.Is(_, ErrContextClosed)", werr)
	}

	// FinishCtx must not stall either, and reports the closed context.
	fctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := q.FinishCtx(fctx); !errors.Is(err, cl.ErrContextClosed) {
		t.Fatalf("FinishCtx = %v, want ErrContextClosed", err)
	}
}

// TestWithPoolSharedAcrossContexts checks the malid multiplexing
// contract: several contexts share one externally owned worker pool,
// closing any context leaves the pool's workers running for the
// others, and only the owner tears it down.
func TestWithPoolSharedAcrossContexts(t *testing.T) {
	pool := device.NewPool(2)
	defer pool.Close()

	run := func(c *cl.Context, g *mali.GPU) {
		t.Helper()
		k, _ := scaleKernel(t, c, 1024)
		q := c.CreateCommandQueue(g)
		if _, err := q.EnqueueNDRangeKernel(k, 1, []int{1024}, nil); err != nil {
			t.Fatal(err)
		}
		if err := q.Finish(); err != nil {
			t.Fatal(err)
		}
	}

	gpu1, gpu2 := mali.New(), mali.New()
	c1 := cl.NewContextWith(cl.WithDevices(gpu1), cl.WithPool(pool))
	c2 := cl.NewContextWith(cl.WithDevices(gpu2), cl.WithPool(pool))
	if got := c1.Workers(); got != pool.Workers() {
		t.Fatalf("Workers() = %d, want pool's %d", got, pool.Workers())
	}

	run(c1, gpu1)
	c1.Close() // must not stop the shared pool's workers
	run(c2, gpu2)
	c2.Close()

	// The pool itself must still run its owner's work-groups.
	prog, err := clc.Compile("nop.cl", "__kernel void nop() {}", "")
	if err != nil {
		t.Fatal(err)
	}
	ndr := &device.NDRange{Kernel: prog.Kernel("nop"), WorkDim: 1, Global: [3]int{64, 1, 1}, Local: [3]int{16, 1, 1}}
	groups := 0
	err = device.RunGroups(device.RunConfig{Pool: pool}, ndr, nil, func(gw *device.GroupWork) error {
		groups++
		gw.Trace.Release()
		return nil
	})
	if err != nil || groups != 4 {
		t.Fatalf("RunGroups on the shared pool after context Close: %d groups, err %v", groups, err)
	}
}

// TestSharedPoolScheduledLaunches is the regression test for the
// shared-pool deadlock: scheduled command bodies used to hop onto a
// pool worker and fan their work-groups out to the same pool, so eight
// contexts sharing two workers could fill both with bodies waiting for
// group jobs no worker was free to run. Bodies now run on their
// scheduler's goroutine. The test fails at a deadline instead of
// hanging, and closes nothing unless every launch finished.
func TestSharedPoolScheduledLaunches(t *testing.T) {
	const contexts, launches, n = 8, 4, 1024
	pool := device.NewPool(2)
	ctxs := make([]*cl.Context, contexts)
	bufs := make([]*cl.Buffer, contexts)
	done := make(chan error, contexts)
	for i := range ctxs {
		gpu := mali.New()
		ctxs[i] = cl.NewContextWith(cl.WithDevices(gpu), cl.WithPool(pool))
		var k *cl.Kernel
		k, bufs[i] = scaleKernel(t, ctxs[i], n)
		q := ctxs[i].CreateCommandQueueWith(gpu, 0)
		go func() {
			for j := 0; j < launches; j++ {
				if _, err := q.EnqueueNDRangeKernelAsync(k, 1, []int{n}, []int{64}, nil); err != nil {
					done <- err
					return
				}
			}
			done <- q.Finish()
		}()
	}
	deadline := time.After(30 * time.Second)
	for range ctxs {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatalf("%d contexts sharing a %d-worker pool made no progress in 30 s", contexts, pool.Workers())
		}
	}
	for i, c := range ctxs {
		raw, _ := bufs[i].Bytes(0, n*4)
		for e := 0; e < n; e++ {
			if got, want := math.Float32frombits(binary.LittleEndian.Uint32(raw[e*4:])), float32(e*16); got != want {
				t.Fatalf("context %d element %d = %g, want %g", i, e, got, want)
			}
		}
		c.Close()
	}
	pool.Close()
}
