package cl

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"maligo/internal/cpu"
	"maligo/internal/device"
	"maligo/internal/mali"
	"maligo/internal/mem"
	"maligo/internal/obs"
)

// memoKernels covers the launch shapes the memo must handle: a plain
// map, a reduction whose partials buffer is only
// written, a histogram combining through global atomics, a loop long
// enough for its groups' traces to stream, and an out-of-bounds load.
const memoKernels = `
__kernel void saxpy(__global const float* x, __global const float* y, __global float* z,
                    const float a, const uint n) {
    size_t i = get_global_id(0);
    if (i < n) {
        z[i] = a * x[i] + y[i];
    }
}
__kernel void partials(__global const float* in, __global float* out, __local float* s) {
    size_t lid = get_local_id(0);
    s[lid] = in[get_global_id(0)];
    barrier(CLK_LOCAL_MEM_FENCE);
    for (size_t w = get_local_size(0) / 2; w > 0; w >>= 1) {
        if (lid < w) {
            s[lid] += s[lid + w];
        }
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    if (lid == 0) {
        out[get_group_id(0)] = s[0];
    }
}
__kernel void hist(__global const int* data, __global int* bins) {
    atomic_add(&bins[data[get_global_id(0)] & 15], 1);
}
__kernel void spin(__global const float* x, __global float* out, const uint iters) {
    size_t i = get_global_id(0);
    float acc = 0.0f;
    for (uint j = 0; j < iters; j++) {
        acc += x[(i + j) % 256];
    }
    out[i] = acc;
}
__kernel void oob(__global float* x) {
    x[get_global_id(0)] = x[get_global_id(0) + 100000000];
}
`

const memoN = 256

// memoFixture is one context with the memo kernels' buffers set up.
type memoFixture struct {
	ctx     *Context
	dev     device.Device
	q       *CommandQueue
	prog    *Program
	x, y, z *Buffer // saxpy operands; spin and partials read x, write z
	data    *Buffer // hist input
	bins    *Buffer
}

func newMemoFixture(t testing.TB, workers int, gpu bool, memo bool) *memoFixture {
	t.Helper()
	var dev device.Device = cpu.New(2)
	if gpu {
		dev = mali.New()
	}
	ctx := NewContextWith(WithDevices(dev), WithWorkers(workers))
	t.Cleanup(ctx.Close)
	if !memo {
		ctx.memo = nil
	}
	prog := ctx.CreateProgramWithSource(memoKernels)
	if err := prog.Build(""); err != nil {
		t.Fatalf("Build: %v\n%s", err, prog.BuildLog())
	}
	f := &memoFixture{ctx: ctx, dev: dev, q: ctx.CreateCommandQueue(dev), prog: prog}
	host := make([]byte, memoN*4)
	for i := 0; i < memoN; i++ {
		binary.LittleEndian.PutUint32(host[i*4:], math.Float32bits(float32(i%7)+0.5))
	}
	f.x = f.buffer(t, host)
	f.y = f.buffer(t, host)
	f.z = f.buffer(t, host)
	for i := 0; i < memoN; i++ {
		binary.LittleEndian.PutUint32(host[i*4:], uint32(i*7))
	}
	f.data = f.buffer(t, host)
	f.bins = f.buffer(t, make([]byte, 16*4))
	return f
}

func (f *memoFixture) buffer(t testing.TB, host []byte) *Buffer {
	t.Helper()
	b, err := f.ctx.CreateBuffer(MemReadWrite|MemCopyHostPtr, int64(len(host)), host)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func (f *memoFixture) kernel(name string, args ...any) (*Kernel, error) {
	k, err := f.prog.CreateKernel(name)
	for i := 0; err == nil && i < len(args); i++ {
		switch v := args[i].(type) {
		case *Buffer:
			err = k.SetArgBuffer(i, v)
		case int:
			err = k.SetArgInt(i, int64(v))
		case float64:
			err = k.SetArgFloat(i, v)
		case localBytes:
			err = k.SetArgLocal(i, int(v))
		}
	}
	return k, err
}

type localBytes int

// launch enqueues one named kernel over memoN work-items in groups of
// 64; "hist_acc" is hist without the host clearing its bins first. It
// does not touch the test, so concurrent tests may call it.
func (f *memoFixture) launch(ctx context.Context, name string) error {
	args := map[string][]any{
		"saxpy":    {f.x, f.y, f.z, 2.0, memoN},
		"partials": {f.x, f.z, localBytes(64 * 4)},
		"hist":     {f.data, f.bins},
		"hist_acc": {f.data, f.bins},
		"spin":     {f.x, f.z, 300},
		"oob":      {f.x},
	}[name]
	k, err := f.kernel(strings.TrimSuffix(name, "_acc"), args...)
	if err != nil {
		return err
	}
	_, err = f.q.EnqueueNDRangeKernelCtx(ctx, k, 1, []int{memoN}, []int{64})
	return err
}

// clearBins zeroes the histogram bins from the host, as hist's driver
// does before every run.
func (f *memoFixture) clearBins() error {
	raw, err := f.bins.Bytes(0, f.bins.Size())
	clear(raw)
	return err
}

func (f *memoFixture) counter(name string) uint64 {
	return f.ctx.metrics.Snapshot().Counters["cl.memo."+name]
}

// observed is every simulated observable of one measured launch.
type observed struct {
	events []Event
	arena  []byte
	l2     mem.CacheStats
	chrome []byte
}

// run does a warm-up launch, optionally mutates the arena, rewinds the
// queue clock and runs the measured launch, like the harness does. It
// reports failures with t.Errorf, so concurrent tests may call it.
func (f *memoFixture) run(t testing.TB, name string, between func()) observed {
	t.Helper()
	var o observed
	step := func(what string) bool {
		if name == "hist" {
			if err := f.clearBins(); err != nil {
				t.Errorf("clear bins: %v", err)
				return false
			}
		}
		if err := f.launch(context.Background(), name); err != nil {
			t.Errorf("%s %s: %v", what, name, err)
			return false
		}
		return true
	}
	if !step("warm-up") {
		return o
	}
	if between != nil {
		between()
	}
	f.q.ResetEvents()
	if !step("measured") {
		return o
	}
	for _, ev := range f.q.Events() {
		e := *ev
		e.HostSeconds = 0
		o.events = append(o.events, e)
	}
	o.arena = f.ctx.Arena().Snapshot()
	o.l2 = f.dev.(interface{ L2Stats() mem.CacheStats }).L2Stats()
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, f.q.Timeline()); err != nil {
		t.Errorf("Chrome trace: %v", err)
	}
	o.chrome = buf.Bytes()
	return o
}

func compareObserved(t *testing.T, label string, got, want observed) {
	t.Helper()
	if !reflect.DeepEqual(got.events, want.events) {
		t.Errorf("%s: events differ\n got %+v\nwant %+v", label, got.events, want.events)
	}
	if !bytes.Equal(got.arena, want.arena) {
		t.Errorf("%s: arena differs", label)
	}
	if got.l2 != want.l2 {
		t.Errorf("%s: L2Stats %+v, want %+v", label, got.l2, want.l2)
	}
	if !bytes.Equal(got.chrome, want.chrome) {
		t.Errorf("%s: Chrome trace differs", label)
	}
}

// TestMemoHitMatchesReexecution checks that a measured launch served
// from the memo is indistinguishable from executing it again, on both
// device models and at one and four workers — including a launch whose
// groups stream their traces.
func TestMemoHitMatchesReexecution(t *testing.T) {
	for _, gpu := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			for _, name := range []string{"saxpy", "partials", "hist", "spin"} {
				memo := newMemoFixture(t, workers, gpu, true)
				got := memo.run(t, name, nil)
				want := newMemoFixture(t, workers, gpu, false).run(t, name, nil)
				label := memo.dev.Name() + "/" + name
				compareObserved(t, label, got, want)
				if h, m := memo.counter("hits"), memo.counter("misses"); h != 1 || m != 1 {
					t.Errorf("%s workers=%d: hits=%d misses=%d, want 1 and 1", label, workers, h, m)
				}
			}
		}
	}
}

// TestMemoFootprintChangeReexecutes changes bytes the launch reads
// between warm-up and measured run: one input byte of saxpy, and the
// histogram bins, which the warm-up's atomics leave updated when they
// are not cleared. The memo must execute again.
func TestMemoFootprintChangeReexecutes(t *testing.T) {
	poke := func(f *memoFixture) func() {
		return func() {
			raw, _ := f.x.Bytes(100, 1)
			raw[0] ^= 0x40
		}
	}
	for _, name := range []string{"saxpy", "hist_acc"} {
		memo := newMemoFixture(t, 4, true, true)
		plain := newMemoFixture(t, 4, true, false)
		var between, plainBetween func()
		if name == "saxpy" {
			between, plainBetween = poke(memo), poke(plain)
		}
		got := memo.run(t, name, between)
		want := plain.run(t, name, plainBetween)
		compareObserved(t, name, got, want)
		if h, m := memo.counter("hits"), memo.counter("misses"); h != 0 || m != 2 {
			t.Errorf("%s: hits=%d misses=%d, want 0 and 2", name, h, m)
		}
	}
}

// TestMemoWriteOnlyChangeHits changes bytes a launch only writes: the
// reduction's partials, and the histogram's bins before their clear.
// Neither is in the footprint, so the measured launch still hits.
func TestMemoWriteOnlyChangeHits(t *testing.T) {
	for _, name := range []string{"partials", "hist"} {
		scribble := func(f *memoFixture) func() {
			b := f.z
			if name == "hist" {
				b = f.bins
			}
			return func() {
				raw, _ := b.Bytes(0, 4)
				copy(raw, []byte{1, 2, 3, 4})
			}
		}
		memo := newMemoFixture(t, 4, true, true)
		got := memo.run(t, name, scribble(memo))
		plain := newMemoFixture(t, 4, true, false)
		want := plain.run(t, name, scribble(plain))
		compareObserved(t, name, got, want)
		if h := memo.counter("hits"); h != 1 {
			t.Errorf("%s: hits=%d, want 1", name, h)
		}
	}
}

// TestMemoDetailModeNeverHits checks that race-checked and
// line-profiled launches always execute.
func TestMemoDetailModeNeverHits(t *testing.T) {
	for _, mode := range []string{"race", "lines"} {
		f := newMemoFixture(t, 4, true, true)
		if mode == "race" {
			f.q.SetRaceCheck(true)
		} else {
			f.q.SetLineProfile(true)
		}
		f.run(t, "saxpy", nil)
		if h, d := f.counter("hits"), f.counter("bypass.detail"); h != 0 || d != 2 {
			t.Errorf("%s: hits=%d bypass.detail=%d, want 0 and 2", mode, h, d)
		}
		if mode == "race" && f.q.Events()[0].RaceCheck == nil {
			t.Errorf("race check result missing")
		}
		if mode == "lines" && len(f.q.LineProfile().Top(1)) == 0 {
			t.Errorf("line profile is empty")
		}
	}
}

// TestMemoOverBudgetReexecutes holds all but one unit of the budget,
// so no launch can be recorded: each executes, with the same results.
func TestMemoOverBudgetReexecutes(t *testing.T) {
	memo := newMemoFixture(t, 4, true, true)
	held := memoBudget - 1
	if !memoReserve(held) {
		t.Fatal("cannot hold the budget")
	}
	got := memo.run(t, "spin", nil)
	memoUnreserve(held)
	want := newMemoFixture(t, 4, true, false).run(t, "spin", nil)
	compareObserved(t, "over budget", got, want)
	if h, o := memo.counter("hits"), memo.counter("bypass.over_budget"); h != 0 || o != 2 {
		t.Errorf("hits=%d bypass.over_budget=%d, want 0 and 2", h, o)
	}
}

// TestMemoFailedLaunchNotRecorded checks that a faulting launch is
// never recorded, so repeating it faults again.
func TestMemoFailedLaunchNotRecorded(t *testing.T) {
	for _, workers := range []int{1, 4} {
		f := newMemoFixture(t, workers, true, true)
		for i := 0; i < 2; i++ {
			if err := f.launch(context.Background(), "oob"); err == nil {
				t.Fatalf("workers=%d: out-of-bounds launch succeeded", workers)
			}
		}
		if h, fl := f.counter("hits"), f.counter("bypass.failed"); h != 0 || fl != 2 {
			t.Errorf("workers=%d: hits=%d bypass.failed=%d, want 0 and 2", workers, h, fl)
		}
		if n := len(f.ctx.memo.entries); n != 0 {
			t.Errorf("workers=%d: %d keys recorded", workers, n)
		}
	}
}

// TestMemoCancelledHit cancels a launch that would hit: it returns
// context.Canceled, leaks no goroutine, and the entry still serves the
// next launch.
func TestMemoCancelledHit(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		f := newMemoFixture(t, 4, true, true)
		if err := f.launch(context.Background(), "spin"); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := f.launch(ctx, "spin"); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled hit: err = %v, want context.Canceled", err)
		}
		if fl := f.counter("bypass.failed"); fl != 1 {
			t.Errorf("bypass.failed=%d, want 1", fl)
		}
		f.ctx.Close()
	}()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines: %d before, %d after", before, n)
	}
}

// TestMemoDroppedOnResetAndClose checks that Arena.Reset and Close
// release a context's entries and their budget.
func TestMemoDroppedOnResetAndClose(t *testing.T) {
	for _, how := range []string{"reset", "close"} {
		f := newMemoFixture(t, 4, true, true)
		memoLRU.Lock()
		base := memoLRU.used
		memoLRU.Unlock()
		if err := f.launch(context.Background(), "spin"); err != nil {
			t.Fatal(err)
		}
		if len(f.ctx.memo.entries) != 1 {
			t.Fatalf("%s: %d keys recorded, want 1", how, len(f.ctx.memo.entries))
		}
		if how == "reset" {
			for _, b := range []*Buffer{f.x, f.y, f.z, f.data, f.bins} {
				b.Release()
			}
			if !f.ctx.Arena().Reset() {
				t.Fatal("arena did not reset")
			}
		} else {
			f.ctx.Close()
		}
		memoLRU.Lock()
		used := memoLRU.used
		memoLRU.Unlock()
		if n := len(f.ctx.memo.entries); n != 0 || used != base {
			t.Errorf("%s: %d keys left, budget used %d, want 0 and %d", how, n, used, base)
		}
	}
}

// TestMemoConcurrentContexts runs several contexts at once against a
// nearly exhausted budget, so their recordings evict each other's
// entries while hits replay retained chunks. Every measured launch
// must still match re-execution.
func TestMemoConcurrentContexts(t *testing.T) {
	const contexts, rounds = 4, 3
	names := []string{"spin", "saxpy"}
	want := map[string]observed{}
	for _, name := range names {
		want[name] = newMemoFixture(t, 2, true, false).run(t, name, nil)
	}
	held := memoBudget - 40
	if !memoReserve(held) {
		t.Fatal("cannot hold the budget")
	}
	defer memoUnreserve(held)
	var fixtures [contexts][rounds]*memoFixture
	for i := range fixtures {
		for r := range fixtures[i] {
			fixtures[i][r] = newMemoFixture(t, 2, true, true)
		}
	}
	var hits atomic.Uint64
	var wg sync.WaitGroup
	for i := range fixtures {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r, f := range fixtures[i] {
				name := names[(i+r)%len(names)]
				compareObserved(t, name, f.run(t, name, nil), want[name])
				hits.Add(f.counter("hits"))
				f.ctx.Close()
			}
		}()
	}
	wg.Wait()
	if hits.Load() == 0 {
		t.Errorf("no launch hit")
	}
}

// BenchmarkLaunchMemo times one multi-group GPU launch that streams
// its traces, executed and recorded (miss) against served from the
// memo (hit).
func BenchmarkLaunchMemo(b *testing.B) {
	for _, mode := range []string{"miss", "hit"} {
		b.Run(mode, func(b *testing.B) {
			f := newMemoFixture(b, 2, true, true)
			if err := f.launch(context.Background(), "spin"); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "miss" {
					f.ctx.memo.drop(false)
				}
				if err := f.launch(context.Background(), "spin"); err != nil {
					b.Fatal(err)
				}
				f.q.ResetEvents()
			}
		})
	}
}
