package cl_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"maligo/internal/cl"
	"maligo/internal/mali"
	"maligo/internal/obs"
)

// newAsyncCtx creates a two-worker context for the queue tests, plus
// its GPU device.
func newAsyncCtx(t *testing.T) (*cl.Context, *mali.GPU) {
	t.Helper()
	gpu := mali.New()
	ctx := cl.NewContextWith(cl.WithDevices(gpu), cl.WithWorkers(2))
	t.Cleanup(ctx.Close)
	return ctx, gpu
}

// scaleKernel builds the scale kernel over an n-float buffer filled
// with 0..n-1 and binds all three arguments (factor 2).
func scaleKernel(t *testing.T, ctx *cl.Context, n int) (*cl.Kernel, *cl.Buffer) {
	t.Helper()
	prog := ctx.CreateProgramWithSource(testKernel)
	if err := prog.Build(""); err != nil {
		t.Fatalf("Build: %v\n%s", err, prog.BuildLog())
	}
	k, err := prog.CreateKernel("scale")
	if err != nil {
		t.Fatal(err)
	}
	buf, err := ctx.CreateBuffer(cl.MemReadWrite, int64(n*4), nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := buf.Bytes(0, int64(n*4))
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(raw[i*4:], math.Float32bits(float32(i)))
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(k.SetArgBuffer(0, buf))
	must(k.SetArgFloat(1, 2))
	must(k.SetArgInt(2, int64(n)))
	return k, buf
}

// TestQueueConformance locks down the OpenCL 1.1 command-queue
// contract of the asynchronous scheduler: in-order chaining,
// out-of-order overlap, wait-lists (within and across queues),
// markers, barriers, user events, per-event failure semantics and the
// typed errors of the wait-list validation. Each scenario is
// independent — a fresh context per row.
func TestQueueConformance(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"InOrderImplicitChain", func(t *testing.T) {
			// In-order queues order commands without wait-lists;
			// consecutive events tile the timeline exactly.
			ctx, gpu := newAsyncCtx(t)
			buf, _ := ctx.CreateBuffer(cl.MemReadWrite, 1<<20, nil)
			q := ctx.CreateCommandQueue(gpu)
			if q.OutOfOrder() {
				t.Fatal("CreateCommandQueue returned an out-of-order queue")
			}
			a, err := q.EnqueueWriteBufferAsync(buf, 0, make([]byte, 1<<20), nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := q.EnqueueWriteBufferAsync(buf, 0, []byte{7, 8, 9}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := q.Finish(); err != nil {
				t.Fatal(err)
			}
			if b.Queued != a.Ended || b.Submitted != b.Queued {
				t.Errorf("in-order chain: b queued/submitted %g/%g, a ended %g",
					b.Queued, b.Submitted, a.Ended)
			}
			raw, _ := buf.Bytes(0, 3)
			if raw[0] != 7 || raw[2] != 9 {
				t.Errorf("second write lost: % x", raw)
			}
			evs := q.Events()
			if len(evs) != 2 || evs[0] != a || evs[1] != b {
				t.Errorf("history = %d events, want [a b]", len(evs))
			}
		}},
		{"OutOfOrderIndependentOverlap", func(t *testing.T) {
			// Independent commands on an out-of-order queue share the
			// same QUEUED/SUBMIT origin: their windows overlap.
			ctx, gpu := newAsyncCtx(t)
			buf, _ := ctx.CreateBuffer(cl.MemReadWrite, 1<<21, nil)
			q := ctx.CreateCommandQueueWith(gpu, cl.QueueOutOfOrderExec)
			if !q.OutOfOrder() || q.Properties() != cl.QueueOutOfOrderExec {
				t.Fatal("queue must report out-of-order properties")
			}
			a, _ := q.EnqueueWriteBufferAsync(buf, 0, make([]byte, 1<<20), nil)
			b, _ := q.EnqueueWriteBufferAsync(buf, 1<<20, make([]byte, 1<<18), nil)
			if err := q.Finish(); err != nil {
				t.Fatal(err)
			}
			if a.Queued != 0 || b.Queued != 0 || a.Submitted != 0 || b.Submitted != 0 {
				t.Errorf("independent commands must share t=0: a %g/%g b %g/%g",
					a.Queued, a.Submitted, b.Queued, b.Submitted)
			}
			if b.Ended >= a.Ended {
				t.Errorf("shorter write must end first: a %g b %g", a.Ended, b.Ended)
			}
			// Completion history is deterministic: dispatch order is
			// lowest-sequence-ready-first, never host interleaving.
			evs := q.Events()
			if len(evs) != 2 || evs[0] != a || evs[1] != b {
				t.Error("out-of-order history must still be deterministic (submit order here)")
			}
		}},
		{"WaitListOrdersWithinQueue", func(t *testing.T) {
			ctx, gpu := newAsyncCtx(t)
			buf, _ := ctx.CreateBuffer(cl.MemReadWrite, 1<<20, nil)
			q := ctx.CreateCommandQueueWith(gpu, cl.QueueOutOfOrderExec)
			a, _ := q.EnqueueWriteBufferAsync(buf, 0, make([]byte, 1<<20), nil)
			b, err := q.EnqueueWriteBufferAsync(buf, 0, []byte{1}, []*cl.Event{a})
			if err != nil {
				t.Fatal(err)
			}
			if err := q.Finish(); err != nil {
				t.Fatal(err)
			}
			if b.Submitted != a.Ended {
				t.Errorf("b SUBMIT %g != a END %g", b.Submitted, a.Ended)
			}
			raw, _ := buf.Bytes(0, 1)
			if raw[0] != 1 {
				t.Error("wait-list ordering violated: dependent write lost")
			}
		}},
		{"WaitListOrdersAcrossQueues", func(t *testing.T) {
			// Wait-lists synchronize queues of one context, like
			// OpenCL events shared across command queues.
			ctx, gpu := newAsyncCtx(t)
			buf, _ := ctx.CreateBuffer(cl.MemReadWrite, 1<<20, nil)
			q1 := ctx.CreateCommandQueueWith(gpu, cl.QueueOutOfOrderExec)
			q2 := ctx.CreateCommandQueueWith(gpu, cl.QueueOutOfOrderExec)
			a, _ := q1.EnqueueWriteBufferAsync(buf, 0, make([]byte, 1<<20), nil)
			b, err := q2.EnqueueWriteBufferAsync(buf, 0, []byte{42}, []*cl.Event{a})
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.WaitForEvents(a, b); err != nil {
				t.Fatal(err)
			}
			if b.Submitted != a.Ended {
				t.Errorf("cross-queue b SUBMIT %g != a END %g", b.Submitted, a.Ended)
			}
			raw, _ := buf.Bytes(0, 1)
			if raw[0] != 42 {
				t.Error("cross-queue ordering violated")
			}
			if err := q1.Finish(); err != nil {
				t.Fatal(err)
			}
			if err := q2.Finish(); err != nil {
				t.Fatal(err)
			}
		}},
		{"KernelWaitListProfiling", func(t *testing.T) {
			// An async NDRange obeys its wait-list and carries the full
			// QUEUED <= SUBMIT <= START <= END profiling ladder, with
			// START trailing SUBMIT by the GPU dispatch overhead.
			ctx, gpu := newAsyncCtx(t)
			k, buf := scaleKernel(t, ctx, 64)
			q := ctx.CreateCommandQueueWith(gpu, cl.QueueOutOfOrderExec)
			w, _ := q.EnqueueWriteBufferAsync(buf, 0, make([]byte, 4), nil)
			ev, err := q.EnqueueNDRangeKernelAsync(k, 1, []int{64}, []int{16}, []*cl.Event{w})
			if err != nil {
				t.Fatal(err)
			}
			if err := ev.Wait(); err != nil {
				t.Fatal(err)
			}
			if ev.Queued > ev.Submitted || ev.Submitted > ev.Started || ev.Started > ev.Ended {
				t.Errorf("non-monotone stamps %g/%g/%g/%g", ev.Queued, ev.Submitted, ev.Started, ev.Ended)
			}
			if ev.Submitted != w.Ended {
				t.Errorf("SUBMIT %g != dep END %g", ev.Submitted, w.Ended)
			}
			if ev.Started == ev.Submitted {
				t.Error("ndrange START must trail SUBMIT by dispatch overhead")
			}
			if ev.Report == nil {
				t.Error("async ndrange event must carry a device report")
			}
			if err := q.Finish(); err != nil {
				t.Fatal(err)
			}
		}},
		{"KernelArgsSnapshotAtEnqueue", func(t *testing.T) {
			// clEnqueueNDRangeKernel captures argument values: a later
			// SetArg must not change a pending command.
			ctx, gpu := newAsyncCtx(t)
			k, buf := scaleKernel(t, ctx, 16)
			q := ctx.CreateCommandQueue(gpu)
			gate, err := ctx.CreateUserEvent("gate")
			if err != nil {
				t.Fatal(err)
			}
			ev, err := q.EnqueueNDRangeKernelAsync(k, 1, []int{16}, []int{16}, []*cl.Event{gate})
			if err != nil {
				t.Fatal(err)
			}
			if err := k.SetArgFloat(1, 100); err != nil { // rebind for a hypothetical next launch
				t.Fatal(err)
			}
			if err := gate.SetComplete(); err != nil {
				t.Fatal(err)
			}
			if err := ev.Wait(); err != nil {
				t.Fatal(err)
			}
			raw, _ := buf.Bytes(0, 4*4)
			got := math.Float32frombits(binary.LittleEndian.Uint32(raw[3*4:]))
			if got != 6 { // 3 * 2, not 3 * 100
				t.Errorf("x[3] = %v, want 6 (enqueue-time factor)", got)
			}
		}},
		{"MarkerWaitsAllOutstanding", func(t *testing.T) {
			// An empty-wait-list marker completes when everything
			// previously enqueued completes, without blocking later
			// commands.
			ctx, gpu := newAsyncCtx(t)
			buf, _ := ctx.CreateBuffer(cl.MemReadWrite, 1<<21, nil)
			q := ctx.CreateCommandQueueWith(gpu, cl.QueueOutOfOrderExec)
			a, _ := q.EnqueueWriteBufferAsync(buf, 0, make([]byte, 1<<20), nil)
			b, _ := q.EnqueueWriteBufferAsync(buf, 1<<20, make([]byte, 1<<18), nil)
			m, err := q.EnqueueMarkerWithWaitList(nil)
			if err != nil {
				t.Fatal(err)
			}
			late, _ := q.EnqueueWriteBufferAsync(buf, 0, make([]byte, 8), nil)
			if err := q.Finish(); err != nil {
				t.Fatal(err)
			}
			end := a.Ended
			if b.Ended > end {
				end = b.Ended
			}
			if m.Ended != end || m.Seconds != 0 {
				t.Errorf("marker END %g (dur %g), want %g (dur 0)", m.Ended, m.Seconds, end)
			}
			if late.Submitted != 0 {
				t.Errorf("marker must not block later commands: SUBMIT %g", late.Submitted)
			}
		}},
		{"MarkerWithExplicitWaitList", func(t *testing.T) {
			ctx, gpu := newAsyncCtx(t)
			buf, _ := ctx.CreateBuffer(cl.MemReadWrite, 1<<21, nil)
			q := ctx.CreateCommandQueueWith(gpu, cl.QueueOutOfOrderExec)
			a, _ := q.EnqueueWriteBufferAsync(buf, 0, make([]byte, 1<<20), nil)
			b, _ := q.EnqueueWriteBufferAsync(buf, 1<<20, make([]byte, 1<<18), nil)
			m, err := q.EnqueueMarkerWithWaitList([]*cl.Event{b})
			if err != nil {
				t.Fatal(err)
			}
			if err := q.Finish(); err != nil {
				t.Fatal(err)
			}
			if m.Ended != b.Ended || m.Ended >= a.Ended {
				t.Errorf("marker END %g, want b's %g (not a's %g)", m.Ended, b.Ended, a.Ended)
			}
		}},
		{"BarrierGatesLaterCommands", func(t *testing.T) {
			ctx, gpu := newAsyncCtx(t)
			buf, _ := ctx.CreateBuffer(cl.MemReadWrite, 1<<21, nil)
			q := ctx.CreateCommandQueueWith(gpu, cl.QueueOutOfOrderExec)
			a, _ := q.EnqueueWriteBufferAsync(buf, 0, make([]byte, 1<<20), nil)
			bar, err := q.EnqueueBarrierWithWaitList(nil)
			if err != nil {
				t.Fatal(err)
			}
			late, _ := q.EnqueueWriteBufferAsync(buf, 1<<20, make([]byte, 8), nil)
			if err := q.Finish(); err != nil {
				t.Fatal(err)
			}
			if bar.Ended != a.Ended {
				t.Errorf("barrier END %g != outstanding END %g", bar.Ended, a.Ended)
			}
			if late.Submitted != bar.Ended {
				t.Errorf("post-barrier SUBMIT %g != barrier END %g", late.Submitted, bar.Ended)
			}
		}},
		{"UserEventGatesAtTimeZero", func(t *testing.T) {
			// Commands gated on a user event stay queued until the host
			// signals; once released, stamps are as if the gate never
			// existed (user events complete at simulated time zero).
			ctx, gpu := newAsyncCtx(t)
			buf, _ := ctx.CreateBuffer(cl.MemReadWrite, 64, nil)
			q := ctx.CreateCommandQueueWith(gpu, cl.QueueOutOfOrderExec)
			gate, err := ctx.CreateUserEvent("gate")
			if err != nil {
				t.Fatal(err)
			}
			if !gate.IsUserEvent() {
				t.Fatal("user event must report IsUserEvent")
			}
			ev, err := q.EnqueueWriteBufferAsync(buf, 0, []byte{5}, []*cl.Event{gate})
			if err != nil {
				t.Fatal(err)
			}
			if ev.Complete() {
				t.Fatal("gated command must stay pending")
			}
			if err := gate.SetComplete(); err != nil {
				t.Fatal(err)
			}
			if err := ev.Wait(); err != nil {
				t.Fatal(err)
			}
			if ev.Queued != 0 || ev.Submitted != 0 {
				t.Errorf("gated stamps %g/%g, want 0/0 (host timing must not leak in)", ev.Queued, ev.Submitted)
			}
			raw, _ := buf.Bytes(0, 1)
			if raw[0] != 5 {
				t.Error("released write did not execute")
			}
		}},
		{"UserEventErrorCascades", func(t *testing.T) {
			// clSetUserEventStatus with a negative status fails every
			// waiting command — but clFinish still succeeds: failures
			// are per-event, not per-queue.
			ctx, gpu := newAsyncCtx(t)
			buf, _ := ctx.CreateBuffer(cl.MemReadWrite, 64, nil)
			q := ctx.CreateCommandQueueWith(gpu, cl.QueueOutOfOrderExec)
			gate, _ := ctx.CreateUserEvent("gate")
			ev, err := q.EnqueueWriteBufferAsync(buf, 0, []byte{1}, []*cl.Event{gate})
			if err != nil {
				t.Fatal(err)
			}
			boom := errors.New("boom")
			if err := gate.SetError(boom); err != nil {
				t.Fatal(err)
			}
			werr := ev.Wait()
			if !errors.Is(werr, cl.ErrEventDepFailed) || !errors.Is(werr, boom) {
				t.Errorf("cascade error = %v, want ErrEventDepFailed wrapping boom", werr)
			}
			if ev.Err() == nil {
				t.Error("failed event must expose its error")
			}
			if err := q.Finish(); err != nil {
				t.Errorf("Finish after per-event failure = %v, want nil", err)
			}
			if got := len(q.Events()); got != 0 {
				t.Errorf("failed command recorded in history (%d events)", got)
			}
			raw, _ := buf.Bytes(0, 1)
			if raw[0] != 0 {
				t.Error("failed command must not execute")
			}
		}},
		{"InOrderFailureOrdersWithoutCascading", func(t *testing.T) {
			// On an in-order queue a failed command does not fail the
			// commands queued behind it: the in-order edge orders, and
			// the successor queues where the failed command would
			// have. A command that lists the failed event in its wait
			// list still fails.
			ctx, gpu := newAsyncCtx(t)
			buf, _ := ctx.CreateBuffer(cl.MemReadWrite, 64, nil)
			q := ctx.CreateCommandQueue(gpu)
			a, err := q.EnqueueWriteBufferAsync(buf, 0, []byte{1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			gate, _ := ctx.CreateUserEvent("gate")
			b, err := q.EnqueueWriteBufferAsync(buf, 0, []byte{2}, []*cl.Event{gate})
			if err != nil {
				t.Fatal(err)
			}
			c, err := q.EnqueueWriteBufferAsync(buf, 1, []byte{3}, nil)
			if err != nil {
				t.Fatal(err)
			}
			d, err := q.EnqueueWriteBufferAsync(buf, 2, []byte{4}, []*cl.Event{b})
			if err != nil {
				t.Fatal(err)
			}
			if err := gate.SetError(errors.New("boom")); err != nil {
				t.Fatal(err)
			}
			if err := b.Wait(); !errors.Is(err, cl.ErrEventDepFailed) {
				t.Fatalf("b = %v, want ErrEventDepFailed", err)
			}
			if err := c.Wait(); err != nil {
				t.Fatalf("c after a failed in-order predecessor = %v, want success", err)
			}
			if err := d.Wait(); !errors.Is(err, cl.ErrEventDepFailed) {
				t.Errorf("d waiting on failed b = %v, want ErrEventDepFailed", err)
			}
			if err := q.Finish(); err != nil {
				t.Fatal(err)
			}
			if c.Queued != a.Ended || c.Submitted != c.Queued {
				t.Errorf("c queued/submitted %g/%g, want a's END %g", c.Queued, c.Submitted, a.Ended)
			}
			if evs := q.Events(); len(evs) != 2 || evs[0] != a || evs[1] != c {
				t.Errorf("history = %d events, want [a c]", len(evs))
			}
			raw, _ := buf.Bytes(0, 3)
			if raw[0] != 1 || raw[1] != 3 || raw[2] != 0 {
				t.Errorf("memory % x, want 01 03 00 (failed commands must not execute)", raw)
			}
		}},
		{"FinishDetectsOrphanStall", func(t *testing.T) {
			// Finishing a queue stuck behind a never-signalled user
			// event reports the stall instead of hanging.
			ctx, gpu := newAsyncCtx(t)
			buf, _ := ctx.CreateBuffer(cl.MemReadWrite, 64, nil)
			q := ctx.CreateCommandQueue(gpu)
			gate, _ := ctx.CreateUserEvent("gate")
			ev, err := q.EnqueueWriteBufferAsync(buf, 0, []byte{1}, []*cl.Event{gate})
			if err != nil {
				t.Fatal(err)
			}
			if err := q.Finish(); !errors.Is(err, cl.ErrOrphanEvent) {
				t.Fatalf("Finish on stalled queue = %v, want ErrOrphanEvent", err)
			}
			if err := gate.SetComplete(); err != nil {
				t.Fatal(err)
			}
			if err := q.Finish(); err != nil {
				t.Fatalf("Finish after signalling = %v", err)
			}
			if err := ev.Wait(); err != nil {
				t.Fatal(err)
			}
		}},
		{"FinishCtxHonoursCancellation", func(t *testing.T) {
			ctx, gpu := newAsyncCtx(t)
			buf, _ := ctx.CreateBuffer(cl.MemReadWrite, 64, nil)
			q := ctx.CreateCommandQueue(gpu)
			gate, _ := ctx.CreateUserEvent("gate")
			if _, err := q.EnqueueWriteBufferAsync(buf, 0, []byte{1}, []*cl.Event{gate}); err != nil {
				t.Fatal(err)
			}
			cctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := q.FinishCtx(cctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("FinishCtx(cancelled) = %v", err)
			}
			if err := gate.SetComplete(); err != nil {
				t.Fatal(err)
			}
			if err := q.Finish(); err != nil {
				t.Fatal(err)
			}
		}},
		{"WaitListValidation", func(t *testing.T) {
			ctx, gpu := newAsyncCtx(t)
			buf, _ := ctx.CreateBuffer(cl.MemReadWrite, 64, nil)
			q := ctx.CreateCommandQueue(gpu)
			ev, err := q.EnqueueWriteBufferAsync(buf, 0, []byte{1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Duplicate wait-list entries.
			if _, err := q.EnqueueWriteBufferAsync(buf, 0, []byte{2}, []*cl.Event{ev, ev}); !errors.Is(err, cl.ErrDoubleWait) {
				t.Errorf("duplicate wait entry = %v, want ErrDoubleWait", err)
			}
			// Nil wait-list entries.
			if _, err := q.EnqueueWriteBufferAsync(buf, 0, []byte{2}, []*cl.Event{nil}); !errors.Is(err, cl.ErrInvalidArgValue) {
				t.Errorf("nil wait entry = %v, want ErrInvalidArgValue", err)
			}
			// Events from another context.
			ctx2, gpu2 := newAsyncCtx(t)
			buf2, _ := ctx2.CreateBuffer(cl.MemReadWrite, 64, nil)
			q2 := ctx2.CreateCommandQueue(gpu2)
			foreign, err := q2.EnqueueWriteBufferAsync(buf2, 0, []byte{1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := q.EnqueueWriteBufferAsync(buf, 0, []byte{2}, []*cl.Event{foreign}); !errors.Is(err, cl.ErrForeignEvent) {
				t.Errorf("foreign wait entry = %v, want ErrForeignEvent", err)
			}
			// Signalling non-user events.
			if err := ev.SetComplete(); !errors.Is(err, cl.ErrNotUserEvent) {
				t.Errorf("SetComplete on command event = %v, want ErrNotUserEvent", err)
			}
			// Double-signalling user events.
			u, _ := ctx.CreateUserEvent("u")
			if err := u.SetComplete(); err != nil {
				t.Fatal(err)
			}
			if err := u.SetComplete(); !errors.Is(err, cl.ErrEventComplete) {
				t.Errorf("second SetComplete = %v, want ErrEventComplete", err)
			}
			if err := u.SetError(errors.New("x")); !errors.Is(err, cl.ErrEventComplete) {
				t.Errorf("SetError after complete = %v, want ErrEventComplete", err)
			}
			if err := q.Finish(); err != nil {
				t.Fatal(err)
			}
			if err := q2.Finish(); err != nil {
				t.Fatal(err)
			}
		}},
		{"FlushIsNonBlocking", func(t *testing.T) {
			ctx, gpu := newAsyncCtx(t)
			buf, _ := ctx.CreateBuffer(cl.MemReadWrite, 64, nil)
			q := ctx.CreateCommandQueue(gpu)
			gate, _ := ctx.CreateUserEvent("gate")
			if _, err := q.EnqueueWriteBufferAsync(buf, 0, []byte{1}, []*cl.Event{gate}); err != nil {
				t.Fatal(err)
			}
			// Flush must return without waiting for the gated command.
			if err := q.Flush(); err != nil {
				t.Errorf("Flush = %v", err)
			}
			if err := gate.SetComplete(); err != nil {
				t.Fatal(err)
			}
			if err := q.Finish(); err != nil {
				t.Fatal(err)
			}
		}},
		{"MapBufferAsync", func(t *testing.T) {
			ctx, gpu := newAsyncCtx(t)
			buf, _ := ctx.CreateBuffer(cl.MemReadWrite, 64, nil)
			q := ctx.CreateCommandQueueWith(gpu, cl.QueueOutOfOrderExec)
			w, _ := q.EnqueueWriteBufferAsync(buf, 0, []byte{9, 9}, nil)
			view, m, err := q.EnqueueMapBufferAsync(buf, 0, 2, []*cl.Event{w})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Wait(); err != nil {
				t.Fatal(err)
			}
			if view[0] != 9 || view[1] != 9 {
				t.Errorf("mapped view = % x after dependency completed", view[:2])
			}
			if m.Submitted != w.Ended {
				t.Errorf("map SUBMIT %g != write END %g", m.Submitted, w.Ended)
			}
			if err := q.Finish(); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}

// runSequence executes the fixed write/ndrange/map/unmap/read command
// sequence of runObserved on a default queue, returning the queue and
// the final buffer contents. With async false every command goes
// through the synchronous API and runs inline; with async true the
// write, ndrange, map and read use the Async variants (the scheduled
// path, chained by the in-order queue) and the unmap, which has no
// Async variant, follows the pending map synchronously.
func runSequence(t *testing.T, async bool) (*cl.CommandQueue, []byte) {
	t.Helper()
	gpu := mali.New()
	ctx := cl.NewContextWith(cl.WithDevices(gpu), cl.WithWorkers(2))
	t.Cleanup(ctx.Close)
	prog := ctx.CreateProgramWithSource(testKernel)
	if err := prog.Build(""); err != nil {
		t.Fatalf("Build: %v", err)
	}
	k, _ := prog.CreateKernel("scale")
	const n = 256
	host := make([]byte, n*4)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(host[i*4:], math.Float32bits(float32(i)))
	}
	buf, err := ctx.CreateBuffer(cl.MemReadWrite, n*4, nil)
	if err != nil {
		t.Fatal(err)
	}
	k.SetArgBuffer(0, buf)
	k.SetArgFloat(1, 3.0)
	k.SetArgInt(2, n)
	q := ctx.CreateCommandQueue(gpu)
	out := make([]byte, n*4)
	must := func(_ any, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	if !async {
		must(q.EnqueueWriteBuffer(buf, 0, host))
		must(q.EnqueueNDRangeKernel(k, 1, []int{n}, []int{64}))
		_, _, err := q.EnqueueMapBuffer(buf, 0, n*4)
		must(nil, err)
		q.EnqueueUnmapMemObject(buf)
		must(q.EnqueueReadBuffer(buf, 0, out))
	} else {
		w, err := q.EnqueueWriteBufferAsync(buf, 0, host, nil)
		must(w, err)
		nd, err := q.EnqueueNDRangeKernelAsync(k, 1, []int{n}, []int{64}, nil)
		must(nd, err)
		_, m, err := q.EnqueueMapBufferAsync(buf, 0, n*4, nil)
		must(m, err)
		u := q.EnqueueUnmapMemObject(buf)
		if u == nil {
			t.Fatal("unmap after a pending map returned no event")
		}
		rd, err := q.EnqueueReadBufferAsync(buf, 0, out, nil)
		must(rd, err)
		must(nil, cl.WaitForEvents(w, nd, m, u, rd))
	}
	must(nil, q.Finish())
	return q, out
}

// TestAsyncMatchesSyncBitIdentical checks the Async API plus Wait (the
// scheduled path) reproduces the synchronous API (the inline path)
// exactly: same event history, same profiling stamps, same memory
// bytes. HostSeconds is excluded — it is host wall-clock, documented
// as nondeterministic.
func TestAsyncMatchesSyncBitIdentical(t *testing.T) {
	qs, outS := runSequence(t, false)
	qa, outA := runSequence(t, true)
	sameEvents(t, qs.Events(), qa.Events())
	if string(outS) != string(outA) {
		t.Error("buffer contents differ between sync and async runs")
	}
}

// sameEvents requires two event histories to agree in every simulated
// observable: identity, profiling stamps, bytes and device reports.
func sameEvents(t *testing.T, se, ae []*cl.Event) {
	t.Helper()
	if len(se) != len(ae) {
		t.Fatalf("event counts differ: sync %d async %d", len(se), len(ae))
	}
	for i := range se {
		s, a := se[i], ae[i]
		if s.Kind != a.Kind || s.Name != a.Name || s.Seq != a.Seq {
			t.Errorf("event %d identity: sync %s/%s/%d async %s/%s/%d",
				i, s.Kind, s.Name, s.Seq, a.Kind, a.Name, a.Seq)
		}
		if s.Queued != a.Queued || s.Submitted != a.Submitted ||
			s.Started != a.Started || s.Ended != a.Ended || s.Seconds != a.Seconds {
			t.Errorf("event %d (%s): sync %g/%g/%g/%g async %g/%g/%g/%g",
				i, s.Kind, s.Queued, s.Submitted, s.Started, s.Ended,
				a.Queued, a.Submitted, a.Started, a.Ended)
		}
		if s.Bytes != a.Bytes {
			t.Errorf("event %d bytes: %d vs %d", i, s.Bytes, a.Bytes)
		}
		if (s.Report == nil) != (a.Report == nil) {
			t.Fatalf("event %d report presence differs", i)
		}
		if s.Report != nil && *s.Report != *a.Report {
			t.Errorf("event %d device report differs:\nsync  %+v\nasync %+v", i, *s.Report, *a.Report)
		}
	}
}

// TestSyncEnqueueFollowsPendingAsync is the regression test for sync
// enqueues overtaking a pending Async one on a default queue. Each of
// a sync read, write and NDRange follows an EnqueueNDRangeKernelAsync
// that waits on a user event the host signals a little later: the sync
// command must see the kernel's memory effects and be QUEUED at the
// kernel's END. The run opens with a sync upload on the idle queue,
// which runs inline, so the first kernel must resume from the queue
// clock. The whole run must match the same sequence issued through
// the synchronous API alone — events and arena bytes.
func TestSyncEnqueueFollowsPendingAsync(t *testing.T) {
	run := func(mixed bool) ([]*cl.Event, []byte) {
		ctx, gpu := newAsyncCtx(t)
		const n = 256
		k, buf := scaleKernel(t, ctx, n) // x[i] = i, scaled by 2 per launch
		q := ctx.CreateCommandQueue(gpu)
		// kernel launches the scale kernel ahead of one sync command
		// and returns its event, complete once the command returns.
		kernel := func() *cl.Event {
			if !mixed {
				ev, err := q.EnqueueNDRangeKernel(k, 1, []int{n}, []int{64})
				if err != nil {
					t.Fatal(err)
				}
				return ev
			}
			gate, err := ctx.CreateUserEvent("gate")
			if err != nil {
				t.Fatal(err)
			}
			ev, err := q.EnqueueNDRangeKernelAsync(k, 1, []int{n}, []int{64}, []*cl.Event{gate})
			if err != nil {
				t.Fatal(err)
			}
			time.AfterFunc(10*time.Millisecond, func() { _ = gate.SetComplete() })
			return ev
		}
		follows := func(what string, pred, ev *cl.Event) {
			t.Helper()
			if err := pred.Wait(); err != nil {
				t.Fatal(err)
			}
			if ev.Queued != pred.Ended {
				t.Errorf("mixed=%v: %s QUEUED %g, want the kernel's END %g", mixed, what, ev.Queued, pred.Ended)
			}
		}
		elem := func(i int) float32 {
			raw, _ := buf.Bytes(int64(i*4), 4)
			return math.Float32frombits(binary.LittleEndian.Uint32(raw))
		}

		raw, _ := buf.Bytes(0, n*4)
		if _, err := q.EnqueueWriteBuffer(buf, 0, append([]byte(nil), raw...)); err != nil {
			t.Fatal(err)
		}
		nd := kernel()
		out := make([]byte, n*4)
		rd, err := q.EnqueueReadBuffer(buf, 0, out)
		if err != nil {
			t.Fatal(err)
		}
		follows("read", nd, rd)
		if got := math.Float32frombits(binary.LittleEndian.Uint32(out[4*9:])); got != 18 {
			t.Errorf("mixed=%v: read saw element 9 = %g, want the kernel's 18", mixed, got)
		}

		nd = kernel()
		seven := binary.LittleEndian.AppendUint32(nil, math.Float32bits(7))
		wr, err := q.EnqueueWriteBuffer(buf, 0, seven)
		if err != nil {
			t.Fatal(err)
		}
		follows("write", nd, wr)
		if got := elem(0); got != 7 {
			t.Errorf("mixed=%v: element 0 = %g after the write, want 7", mixed, got)
		}

		nd = kernel()
		nd2, err := q.EnqueueNDRangeKernel(k, 1, []int{n}, []int{64})
		if err != nil {
			t.Fatal(err)
		}
		follows("ndrange", nd, nd2)
		if got0, got9 := elem(0), elem(9); got0 != 28 || got9 != 9*16 {
			t.Errorf("mixed=%v: elements 0, 9 = %g, %g, want 28, 144", mixed, got0, got9)
		}
		if err := q.Finish(); err != nil {
			t.Fatal(err)
		}
		return q.Events(), ctx.Arena().Snapshot()
	}
	syncEvents, syncArena := run(false)
	mixedEvents, mixedArena := run(true)
	sameEvents(t, syncEvents, mixedEvents)
	if !bytes.Equal(syncArena, mixedArena) {
		t.Error("arena bytes differ between the sync and the mixed runs")
	}
}

// TestAsyncAfterFailedAsyncLaunch checks a failed Async command does
// not poison its in-order queue: after an NDRange whose local size
// does not divide the global size fails on its event, a sync read and
// then an Async read on the same queue both succeed.
func TestAsyncAfterFailedAsyncLaunch(t *testing.T) {
	ctx, gpu := newAsyncCtx(t)
	const n = 256
	k, buf := scaleKernel(t, ctx, n)
	q := ctx.CreateCommandQueue(gpu)
	nd, err := q.EnqueueNDRangeKernelAsync(k, 1, []int{n}, []int{7}, nil)
	if err != nil {
		t.Fatalf("enqueue: %v (want the failure on the event)", err)
	}
	if err := nd.Wait(); err == nil {
		t.Fatal("NDRange with local 7 on global 256 succeeded")
	}
	out := make([]byte, n*4)
	if _, err := q.EnqueueReadBuffer(buf, 0, out); err != nil {
		t.Fatalf("sync read after the failed launch: %v", err)
	}
	rd, err := q.EnqueueReadBufferAsync(buf, 0, out, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rd.Wait(); err != nil {
		t.Fatalf("Async read after the failed launch: %v", err)
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	if evs := q.Events(); len(evs) != 2 || evs[1] != rd || rd.Queued < evs[0].Ended {
		t.Errorf("history = %d events, want [sync read, async read] tiling the queue clock", len(evs))
	}
}

// TestMarkerBarrierAfterFailedAsync: a failed Async launch is part of
// the implicit set an empty-wait-list marker or barrier orders after,
// but like the in-order edge that set only orders, so both succeed,
// just as they do after a failed sync command.
func TestMarkerBarrierAfterFailedAsync(t *testing.T) {
	ctx, gpu := newAsyncCtx(t)
	const n = 256
	k, _ := scaleKernel(t, ctx, n)
	q := ctx.CreateCommandQueue(gpu)
	nd, err := q.EnqueueNDRangeKernelAsync(k, 1, []int{n}, []int{7}, nil)
	if err != nil {
		t.Fatalf("enqueue: %v (want the failure on the event)", err)
	}
	if err := nd.Wait(); err == nil {
		t.Fatal("NDRange with local 7 on global 256 succeeded")
	}
	m, err := q.EnqueueMarkerWithWaitList(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Wait(); err != nil {
		t.Errorf("marker after the failed launch: %v", err)
	}
	bar, err := q.EnqueueBarrierWithWaitList(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := bar.Wait(); err != nil {
		t.Errorf("barrier after the failed launch: %v", err)
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestMarkerBarrierAfterFailedUserEvent: on an out-of-order queue, a
// command gated on a user event that later fails with SetError fails
// itself (the wait-list cascades), and so does a marker listing it
// explicitly. An empty-wait-list marker and barrier enqueued behind it
// resolve only after it, and succeed.
func TestMarkerBarrierAfterFailedUserEvent(t *testing.T) {
	ctx, gpu := newAsyncCtx(t)
	buf, _ := ctx.CreateBuffer(cl.MemReadWrite, 64, nil)
	q := ctx.CreateCommandQueueWith(gpu, cl.QueueOutOfOrderExec)
	gate, err := ctx.CreateUserEvent("gate")
	if err != nil {
		t.Fatal(err)
	}
	w, err := q.EnqueueWriteBufferAsync(buf, 0, []byte{5}, []*cl.Event{gate})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := q.EnqueueMarkerWithWaitList([]*cl.Event{w})
	if err != nil {
		t.Fatal(err)
	}
	m, err := q.EnqueueMarkerWithWaitList(nil)
	if err != nil {
		t.Fatal(err)
	}
	bar, err := q.EnqueueBarrierWithWaitList(nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Complete() || bar.Complete() {
		t.Fatal("marker or barrier resolved before the gated write")
	}
	boom := errors.New("boom")
	if err := gate.SetError(boom); err != nil {
		t.Fatal(err)
	}
	if err := w.Wait(); !errors.Is(err, cl.ErrEventDepFailed) {
		t.Fatalf("gated write: %v, want ErrEventDepFailed", err)
	}
	if err := explicit.Wait(); !errors.Is(err, cl.ErrEventDepFailed) {
		t.Errorf("marker listing the failed write: %v, want ErrEventDepFailed", err)
	}
	if err := m.Wait(); err != nil {
		t.Errorf("empty-wait-list marker: %v", err)
	}
	if err := bar.Wait(); err != nil {
		t.Errorf("empty-wait-list barrier: %v", err)
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestQueueConcurrentMixedEnqueues drives one in-order queue from
// several goroutines at once, each mixing sync and Async launches, so
// inline and scheduled commands interleave on it. Whatever the
// interleaving, the history must be one chain that tiles the queue
// clock, and every launch must reach memory exactly once.
func TestQueueConcurrentMixedEnqueues(t *testing.T) {
	const goroutines, launches, n = 4, 6, 256
	ctx, gpu := newAsyncCtx(t)
	k, buf := scaleKernel(t, ctx, n) // x[i] = i, scaled by 2 per launch
	q := ctx.CreateCommandQueue(gpu)
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			for i := 0; i < launches; i++ {
				var err error
				if (g+i)%2 == 0 {
					_, err = q.EnqueueNDRangeKernel(k, 1, []int{n}, []int{64})
				} else {
					_, err = q.EnqueueNDRangeKernelAsync(k, 1, []int{n}, []int{64}, nil)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	evs := q.Events()
	if len(evs) != goroutines*launches {
		t.Fatalf("history holds %d events, want %d", len(evs), goroutines*launches)
	}
	end := 0.0
	for i, ev := range evs {
		if ev.Seq != i || ev.Queued != end || ev.Submitted != ev.Queued {
			t.Errorf("event %d: seq %d QUEUED %g SUBMIT %g, want QUEUED = previous END %g",
				i, ev.Seq, ev.Queued, ev.Submitted, end)
		}
		end = ev.Ended
	}
	raw, _ := buf.Bytes(0, n*4)
	scale := float32(1 << (goroutines * launches))
	for i := 0; i < n; i++ {
		if got, want := math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:])), float32(i)*scale; got != want {
			t.Fatalf("element %d = %g, want %g", i, got, want)
		}
	}
}

// TestTraceMultiQueueGolden locks the Chrome-trace export of a fixed
// two-queue overlapped workload down to the byte: two out-of-order
// queues, a cross-queue wait-list, a marker and a barrier. Since the
// schedule is a pure function of the DAG, the export must reproduce
// exactly on every host. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/cl -run TraceMultiQueueGolden.
func TestTraceMultiQueueGolden(t *testing.T) {
	ctx, gpu := newAsyncCtx(t)
	k, buf := scaleKernel(t, ctx, 256)
	aux, err := ctx.CreateBuffer(cl.MemReadWrite, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	q1 := ctx.CreateCommandQueueWith(gpu, cl.QueueOutOfOrderExec)
	q2 := ctx.CreateCommandQueueWith(gpu, cl.QueueOutOfOrderExec)

	// q1: upload then launch; q2: an independent overlapping upload.
	w1, err := q1.EnqueueWriteBufferAsync(buf, 0, make([]byte, 256*4), nil)
	if err != nil {
		t.Fatal(err)
	}
	nd, err := q1.EnqueueNDRangeKernelAsync(k, 1, []int{256}, []int{64}, []*cl.Event{w1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q2.EnqueueWriteBufferAsync(aux, 0, make([]byte, 1<<20), nil); err != nil {
		t.Fatal(err)
	}
	// q2 reads the kernel's output: a cross-queue dependency.
	out := make([]byte, 256*4)
	if _, err := q2.EnqueueReadBufferAsync(buf, 0, out, []*cl.Event{nd}); err != nil {
		t.Fatal(err)
	}
	if _, err := q1.EnqueueMarkerWithWaitList(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q2.EnqueueBarrierWithWaitList(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q2.EnqueueWriteBufferAsync(aux, 0, make([]byte, 64), nil); err != nil {
		t.Fatal(err)
	}
	if err := q1.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := q2.Finish(); err != nil {
		t.Fatal(err)
	}

	spans := append(q1.Timeline(), q2.Timeline()...)
	var trace bytes.Buffer
	if err := obs.WriteChromeTrace(&trace, spans); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "trace_multiqueue.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, trace.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (run with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(trace.Bytes(), want) {
		t.Errorf("multi-queue trace drifted from golden:\ngot:\n%s\nwant:\n%s", trace.Bytes(), want)
	}
}

// TestFinishCtxUnwindsWithoutGoroutineLeaks drives the cancellation
// path end to end: a queue stalled behind a user event, a cancelled
// FinishCtx, then release and teardown — and requires the goroutine
// count to return to baseline (scheduler executor and pool workers
// all gone). Stdlib-only leak check.
func TestFinishCtxUnwindsWithoutGoroutineLeaks(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		gpu := mali.New()
		ctx := cl.NewContextWith(cl.WithDevices(gpu), cl.WithWorkers(2))
		defer ctx.Close()
		buf, err := ctx.CreateBuffer(cl.MemReadWrite, 1<<16, nil)
		if err != nil {
			t.Fatal(err)
		}
		q := ctx.CreateCommandQueue(gpu)
		gate, _ := ctx.CreateUserEvent("gate")
		var last *cl.Event
		for i := 0; i < 8; i++ {
			ev, err := q.EnqueueWriteBufferAsync(buf, int64(i*16), make([]byte, 16), []*cl.Event{gate})
			if err != nil {
				t.Fatal(err)
			}
			last = ev
		}
		cctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := q.FinishCtx(cctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("FinishCtx(cancelled) = %v", err)
		}
		if err := gate.SetComplete(); err != nil {
			t.Fatal(err)
		}
		if err := q.Finish(); err != nil {
			t.Fatal(err)
		}
		if err := last.Wait(); err != nil {
			t.Fatal(err)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), base)
}

// TestFinishClosedContextError is the regression test for the old
// silent no-op: Finish (and Flush) on a queue whose context has been
// closed must report ErrContextClosed, not pretend success — on an
// in-order queue (whose write runs inline) and on an out-of-order one
// (whose write is scheduled).
func TestFinishClosedContextError(t *testing.T) {
	for _, props := range []cl.QueueProps{0, cl.QueueOutOfOrderExec} {
		gpu := mali.New()
		ctx := cl.NewContextWith(cl.WithDevices(gpu))
		q := ctx.CreateCommandQueueWith(gpu, props)
		buf, _ := ctx.CreateBuffer(cl.MemReadWrite, 64, nil)
		if _, err := q.EnqueueWriteBuffer(buf, 0, []byte{1}); err != nil {
			t.Fatal(err)
		}
		if err := q.Finish(); err != nil {
			t.Fatalf("props=%d: Finish on live context = %v", props, err)
		}
		ctx.Close()
		if err := q.Finish(); !errors.Is(err, cl.ErrContextClosed) {
			t.Errorf("props=%d: Finish on closed context = %v, want ErrContextClosed", props, err)
		}
		if err := q.Flush(); !errors.Is(err, cl.ErrContextClosed) {
			t.Errorf("props=%d: Flush on closed context = %v, want ErrContextClosed", props, err)
		}
	}
}
