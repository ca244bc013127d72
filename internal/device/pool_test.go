package device_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"maligo/internal/clc"
	"maligo/internal/clc/ir"
	"maligo/internal/device"
	"maligo/internal/vm"
)

// poolMem is a minimal GlobalMemory over one flat byte slice;
// concurrent work-groups touch disjoint ranges so plain stores are
// safe.
type poolMem struct {
	data []byte
}

func (m *poolMem) LoadBits(space int, off int64, size int) (uint64, error) {
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(m.data[off+int64(i)])
	}
	return v, nil
}

func (m *poolMem) StoreBits(space int, off int64, size int, bits uint64) error {
	for i := 0; i < size; i++ {
		m.data[off+int64(i)] = byte(bits >> (8 * uint(i)))
	}
	return nil
}

func (m *poolMem) AtomicRMW(space int, off int64, size int, op vm.AtomicOp) (uint64, error) {
	old, err := m.LoadBits(space, off, size)
	if err != nil {
		return 0, err
	}
	return old, m.StoreBits(space, off, size, op.Apply(old))
}

const idKernel = `
__kernel void ids(__global int* out) {
    size_t i = get_global_id(0);
    out[i] = (int)i;
}
`

func compileKernel(t *testing.T, src, name string) *ir.Kernel {
	t.Helper()
	prog, err := clc.Compile("pool_test.cl", src, "")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	k := prog.Kernel(name)
	if k == nil {
		t.Fatalf("kernel %s not found", name)
	}
	return k
}

func idNDRange(t *testing.T, n, local int) *device.NDRange {
	t.Helper()
	k := compileKernel(t, idKernel, "ids")
	return &device.NDRange{
		Kernel:  k,
		WorkDim: 1,
		Global:  [3]int{n, 1, 1},
		Local:   [3]int{local, 1, 1},
		Args:    []vm.ArgValue{{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)}},
	}
}

// loopKernel makes each work-item load its own slot n times, so with
// 16 items per group and n = streamIters a group records two full
// trace chunks and streams into its consumer while it executes.
const loopKernel = `
__kernel void loop(__global int* out, const uint n) {
    size_t i = get_global_id(0);
    int acc = 0;
    for (uint j = 0; j < n; j++) {
        acc += out[i];
    }
    out[i] = acc + (int)i;
}
`

const streamIters = 1024

func loopNDRange(t *testing.T, n, local int) *device.NDRange {
	t.Helper()
	k := compileKernel(t, loopKernel, "loop")
	return &device.NDRange{
		Kernel:  k,
		WorkDim: 1,
		Global:  [3]int{n, 1, 1},
		Local:   [3]int{local, 1, 1},
		Args: []vm.ArgValue{
			{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)},
			{Bits: streamIters},
		},
	}
}

// countObserver counts replayed events.
type countObserver struct{ n int }

func (c *countObserver) OnAccess(space int, addr int64, size int, write bool) { c.n++ }
func (c *countObserver) OnAtomic(space int, addr int64, size int)             { c.n++ }

// replay drains gw's trace the way a device consumer does and checks
// every recorded event arrived (a detail trace also holds work-item
// context records, which Replay skips). Only after it is gw.Profile
// complete.
func replay(t *testing.T, gw *device.GroupWork) int {
	t.Helper()
	var c countObserver
	gw.Trace.Replay(&c)
	if !gw.Trace.Detailed() && c.n != gw.Trace.Len() {
		t.Errorf("group %d: replayed %d events, trace holds %d", gw.Index, c.n, gw.Trace.Len())
	}
	return c.n
}

// TestRunGroupsOrdering checks that consume sees every group exactly
// once, in dispatch order, regardless of the concurrent execution
// order, and that the functional result lands in memory — both for
// groups handed over when they finish and for streamed groups.
func TestRunGroupsOrdering(t *testing.T) {
	const n, local = 1024, 16
	for _, tc := range []struct {
		name      string
		ndr       *device.NDRange
		minEvents int // per group
	}{
		{"whole", idNDRange(t, n, local), 1},
		{"streamed", loopNDRange(t, n, local), local * streamIters},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := &poolMem{data: make([]byte, n*4)}
			pool := device.NewPool(4)
			defer pool.Close()

			var order []int
			var workItems uint64
			err := device.RunGroups(device.RunConfig{Pool: pool}, tc.ndr, mem, func(gw *device.GroupWork) error {
				order = append(order, gw.Index)
				if got := replay(t, gw); got < tc.minEvents {
					t.Errorf("group %d: %d events, want at least %d", gw.Index, got, tc.minEvents)
				}
				workItems += gw.Profile.WorkItems
				gw.Trace.Release()
				return nil
			})
			if err != nil {
				t.Fatalf("RunGroups: %v", err)
			}
			if len(order) != n/local {
				t.Fatalf("consumed %d groups, want %d", len(order), n/local)
			}
			for i, idx := range order {
				if idx != i {
					t.Fatalf("consume order[%d] = %d, want %d", i, idx, i)
				}
			}
			if workItems != n {
				t.Fatalf("profile work-items = %d, want %d", workItems, n)
			}
			for i := 0; i < n; i++ {
				v, _ := mem.LoadBits(ir.SpaceGlobal, int64(i*4), 4)
				if int(int32(v)) != i {
					t.Fatalf("out[%d] = %d, want %d", i, int32(v), i)
				}
			}
		})
	}
}

// TestRunGroupsConsumeError checks that an error returned by consume
// aborts the run and is reported.
func TestRunGroupsConsumeError(t *testing.T) {
	ndr := idNDRange(t, 256, 16)
	mem := &poolMem{data: make([]byte, 256*4)}
	pool := device.NewPool(4)
	defer pool.Close()

	boom := errors.New("boom")
	calls := 0
	err := device.RunGroups(device.RunConfig{Pool: pool}, ndr, mem, func(gw *device.GroupWork) error {
		calls++
		replay(t, gw)
		gw.Trace.Release()
		if gw.Index == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls < 4 {
		t.Fatalf("consume ran %d times, want at least 4 (groups 0..3)", calls)
	}
}

// TestRunGroupsCancel checks that a cancelled context aborts the run
// with the context's error.
func TestRunGroupsCancel(t *testing.T) {
	ndr := idNDRange(t, 1024, 16)
	mem := &poolMem{data: make([]byte, 1024*4)}
	pool := device.NewPool(2)
	defer pool.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := device.RunGroups(device.RunConfig{Ctx: ctx, Pool: pool}, ndr, mem, func(gw *device.GroupWork) error {
		replay(t, gw)
		gw.Trace.Release()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSerialGroupsOrderAndCancel checks RunGroups without a parallel
// pool: groups run on the calling goroutine in dispatch order, each
// consumed before the next starts, and cancellation lands between
// groups.
func TestSerialGroupsOrderAndCancel(t *testing.T) {
	ndr := idNDRange(t, 64, 16)
	mem := &poolMem{data: make([]byte, 64*4)}
	for _, pool := range []*device.Pool{nil, device.NewPool(1)} {
		var order []int
		err := device.RunGroups(device.RunConfig{Pool: pool}, ndr, mem, func(gw *device.GroupWork) error {
			order = append(order, gw.Index)
			if gw.Group[0] != gw.Index {
				t.Errorf("group[0] = %d at index %d", gw.Group[0], gw.Index)
			}
			if n := replay(t, gw); n != 16 {
				t.Errorf("group %d replayed %d events, want 16", gw.Index, n)
			}
			gw.Trace.Release()
			return nil
		})
		if err != nil {
			t.Fatalf("RunGroups: %v", err)
		}
		if len(order) != 4 {
			t.Fatalf("ran %d groups, want 4", len(order))
		}

		ctx, cancel := context.WithCancel(context.Background())
		ran := 0
		err = device.RunGroups(device.RunConfig{Ctx: ctx, Pool: pool}, ndr, mem, func(gw *device.GroupWork) error {
			ran++
			if ran == 2 {
				cancel()
			}
			replay(t, gw)
			gw.Trace.Release()
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if ran != 2 {
			t.Fatalf("ran %d groups after cancel, want 2", ran)
		}
		if pool != nil {
			pool.Close()
		}
	}
}

// slowObserver stalls on every group trace, widening the window in
// which cancellation catches a run mid-flight — the regression shape
// for the ordered fan-in stalling behind a slow consumer.
type slowObserver struct{ delay time.Duration }

func (o slowObserver) ObserveGroup(group [3]int, tr *vm.Trace) { time.Sleep(o.delay) }

// waitGoroutines polls until the goroutine count returns to the
// baseline (stdlib-only leak check; the runtime may lag a little
// after channel teardown).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), base)
}

// TestRunGroupsSlowObserverCancelNoLeak cancels a run whose ordered
// fan-in is stalled behind a slow observer and checks the whole
// machinery — dispatcher, window semaphore, reorder buffer, pool
// workers — unwinds without leaking goroutines. The race observer
// forces whole-group hand-off; the streamed leg stalls consume itself
// while later groups keep queueing chunks.
func TestRunGroupsSlowObserverCancelNoLeak(t *testing.T) {
	const n, local = 4096, 16
	for _, tc := range []struct {
		name     string
		ndr      *device.NDRange
		race     device.RaceObserver
		slowStep time.Duration // consume's own stall
	}{
		{"whole", idNDRange(t, n, local), slowObserver{delay: time.Millisecond}, 0},
		{"streamed", loopNDRange(t, n, local), nil, time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			mem := &poolMem{data: make([]byte, n*4)}
			pool := device.NewPool(4)

			ctx, cancel := context.WithCancel(context.Background())
			consumed := 0
			err := device.RunGroups(device.RunConfig{
				Ctx:  ctx,
				Pool: pool,
				Race: tc.race,
			}, tc.ndr, mem, func(gw *device.GroupWork) error {
				consumed++
				time.Sleep(tc.slowStep)
				replay(t, gw)
				gw.Trace.Release()
				if consumed == 2 {
					cancel() // cancel mid-run, with groups still in flight
				}
				return nil
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if consumed >= n/local {
				t.Fatal("cancellation did not stop the run early")
			}
			pool.Close()
			waitGoroutines(t, base)
		})
	}
}

// TestRunGroupsConsumeErrorNoLeak checks the error-abort path also
// unwinds cleanly when in-flight groups are still being dispatched —
// including streamed groups the consumer never replays, whose
// workers must still run to completion.
func TestRunGroupsConsumeErrorNoLeak(t *testing.T) {
	const n, local = 4096, 16
	for _, tc := range []struct {
		name string
		ndr  *device.NDRange
	}{
		{"whole", idNDRange(t, n, local)},
		{"streamed", loopNDRange(t, n, local)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			mem := &poolMem{data: make([]byte, n*4)}
			pool := device.NewPool(4)

			boom := errors.New("boom")
			err := device.RunGroups(device.RunConfig{Pool: pool}, tc.ndr, mem, func(gw *device.GroupWork) error {
				gw.Trace.Release()
				return boom
			})
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want boom", err)
			}
			// Close waits for every worker: one still blocked on a
			// stream would hang here.
			pool.Close()
			waitGoroutines(t, base)
		})
	}
}

// TestPoolRunNested checks Pool.Run — the scheduler's command-body
// entry point — both alone and with a nested RunGroups fan-out
// sharing the remaining workers, the exact shape async NDRange
// commands produce.
func TestPoolRunNested(t *testing.T) {
	pool := device.NewPool(2)
	defer pool.Close()

	ran := false
	pool.Run(func() { ran = true })
	if !ran {
		t.Fatal("Run did not execute the function")
	}

	// The streamed NDRange has the fan-in block in Replay on the one
	// worker the body leaves free.
	for _, ndr := range []*device.NDRange{idNDRange(t, 256, 16), loopNDRange(t, 256, 16)} {
		mem := &poolMem{data: make([]byte, 256*4)}
		var groups int
		pool.Run(func() {
			err := device.RunGroups(device.RunConfig{Pool: pool}, ndr, mem, func(gw *device.GroupWork) error {
				groups++
				replay(t, gw)
				gw.Trace.Release()
				return nil
			})
			if err != nil {
				t.Errorf("nested RunGroups: %v", err)
			}
		})
		if groups != 256/16 {
			t.Fatalf("nested run consumed %d groups, want %d", groups, 256/16)
		}
	}
}

// TestPoolCloseIdempotent checks Close can be called repeatedly.
func TestPoolCloseIdempotent(t *testing.T) {
	p := device.NewPool(3)
	if p.Workers() != 3 {
		t.Fatalf("Workers = %d, want 3", p.Workers())
	}
	p.Close()
	p.Close()
}

// recordedEvent is one replayed access, for comparing access streams.
type recordedEvent struct {
	space  int
	addr   int64
	size   int
	write  bool
	atomic bool
}

type streamObserver struct{ events []recordedEvent }

func (o *streamObserver) OnAccess(space int, addr int64, size int, write bool) {
	o.events = append(o.events, recordedEvent{space: space, addr: addr, size: size, write: write})
}

func (o *streamObserver) OnAtomic(space int, addr int64, size int) {
	o.events = append(o.events, recordedEvent{space: space, addr: addr, size: size, atomic: true})
}

// TestRunGroupsRecordReplay checks the record sink and the replay
// source: a recorded run, streamed groups included, replays the same
// per-group access streams and profiles in the same order without
// executing, any number of times, at every worker count.
func TestRunGroupsRecordReplay(t *testing.T) {
	const n, local = 256, 16
	for _, workers := range []int{1, 4} {
		ndr := loopNDRange(t, n, local)
		mem := &poolMem{data: make([]byte, n*4)}
		var pool *device.Pool
		if workers > 1 {
			pool = device.NewPool(workers)
		}
		var live streamObserver
		var profiles []vm.Profile
		var rec []*device.GroupWork
		consumeInto := func(o *streamObserver, profs *[]vm.Profile) func(*device.GroupWork) error {
			return func(gw *device.GroupWork) error {
				gw.Trace.Replay(o)
				gw.Trace.Release()
				*profs = append(*profs, gw.Profile)
				return nil
			}
		}
		rc := device.RunConfig{Pool: pool, Record: func(gw *device.GroupWork) { rec = append(rec, gw) }}
		if err := device.RunGroups(rc, ndr, mem, consumeInto(&live, &profiles)); err != nil {
			t.Fatalf("workers=%d record: %v", workers, err)
		}
		if len(rec) != n/local {
			t.Fatalf("workers=%d: recorded %d groups, want %d", workers, len(rec), n/local)
		}
		after := append([]byte(nil), mem.data...)
		for pass := 0; pass < 2; pass++ {
			var again streamObserver
			var replayed []vm.Profile
			rc := device.RunConfig{Pool: pool, Replay: rec}
			if err := device.RunGroups(rc, ndr, mem, consumeInto(&again, &replayed)); err != nil {
				t.Fatalf("workers=%d replay: %v", workers, err)
			}
			if !reflect.DeepEqual(again.events, live.events) {
				t.Fatalf("workers=%d pass %d: replayed stream differs (%d vs %d events)",
					workers, pass, len(again.events), len(live.events))
			}
			if !reflect.DeepEqual(replayed, profiles) {
				t.Fatalf("workers=%d pass %d: replayed profiles differ", workers, pass)
			}
		}
		if !bytes.Equal(mem.data, after) {
			t.Fatalf("workers=%d: replay wrote memory", workers)
		}

		// A cancelled replay stops between groups.
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		err := device.RunGroups(device.RunConfig{Ctx: ctx, Replay: rec}, ndr, mem, func(gw *device.GroupWork) error {
			seen++
			cancel()
			gw.Trace.Replay(&streamObserver{})
			gw.Trace.Release()
			return nil
		})
		if !errors.Is(err, context.Canceled) || seen != 1 {
			t.Fatalf("workers=%d cancelled replay: err=%v after %d groups", workers, err, seen)
		}
		for _, gw := range rec {
			gw.Trace.Discard()
		}
		if pool != nil {
			pool.Close()
		}
	}
}

// TestRunGroupsRecordStopsAtFailure checks that the record sink sees
// the groups before a failing one and never the failing group itself.
func TestRunGroupsRecordStopsAtFailure(t *testing.T) {
	ndr := idNDRange(t, 64, 16)
	mem := &poolMem{data: make([]byte, 64*4)}
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var pool *device.Pool
		if workers > 1 {
			pool = device.NewPool(workers)
		}
		recorded := 0
		rc := device.RunConfig{Pool: pool, Record: func(gw *device.GroupWork) { recorded++; gw.Trace.Discard() }}
		err := device.RunGroups(rc, ndr, mem, func(gw *device.GroupWork) error {
			gw.Trace.Replay(&streamObserver{})
			gw.Trace.Release()
			if gw.Index == 2 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		if recorded != 2 {
			t.Fatalf("workers=%d: record sink saw %d groups, want the 2 before the failure", workers, recorded)
		}
		if pool != nil {
			pool.Close()
		}
	}
}
