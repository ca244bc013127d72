package vm_test

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"maligo/internal/bench"
	"maligo/internal/clc"
	"maligo/internal/clc/builtin"
	"maligo/internal/clc/ir"
	"maligo/internal/clc/types"
	"maligo/internal/vm"
)

// streamObserver records the full ordered observer callback stream —
// every OnContext and OnAccess/OnAtomic with all arguments — so tests
// can require the compiled engine's stream to be event-for-event
// identical to the interpreter's. This is the sharpest pin on
// divergent-control bugs: a work-item that writes memory, emits a
// trace record, or faults differently shows up here as a stream diff
// even when the final memory image happens to agree.
type streamObserver struct {
	events []streamEvent
}

type streamEvent struct {
	kind              string // "ctx", "access", "atomic"
	item, phase, line int
	space             int
	addr              int64
	size              int
	write             bool
}

func (o *streamObserver) OnAccess(space int, addr int64, size int, write bool) {
	o.events = append(o.events, streamEvent{kind: "access", space: space, addr: addr, size: size, write: write})
}

func (o *streamObserver) OnAtomic(space int, addr int64, size int) {
	o.events = append(o.events, streamEvent{kind: "atomic", space: space, addr: addr, size: size})
}

func (o *streamObserver) OnContext(item, phase, line int) {
	o.events = append(o.events, streamEvent{kind: "ctx", item: item, phase: phase, line: line})
}

func (o *streamObserver) ContextActive() bool { return true }

// runCompiledVsInterp executes the same work-group under the
// interpreter and the compiled engine with full stream observation and
// requires every observable to match: memory, profile, error, and the
// ordered callback stream.
func runCompiledVsInterp(t *testing.T, src, kernel string, local int, args func(*flatMem) []vm.ArgValue, stepLimit uint64) {
	t.Helper()
	runKernelCompiledVsInterp(t, mustCompile(t, src, "").Kernel(kernel), local, args, stepLimit)
}

// runKernelCompiledVsInterp is runCompiledVsInterp for a kernel given
// as IR.
func runKernelCompiledVsInterp(t *testing.T, k *ir.Kernel, local int, args func(*flatMem) []vm.ArgValue, stepLimit uint64) {
	t.Helper()
	run := func(eng vm.Engine) ([]byte, vm.Profile, []streamEvent, error) {
		mem := newFlatMem(4096, nil)
		obs := &streamObserver{}
		cfg := &vm.GroupConfig{
			Kernel:     k,
			WorkDim:    1,
			LocalSize:  [3]int{local, 1, 1},
			GlobalSize: [3]int{local, 1, 1},
			Args:       args(mem),
			Mem:        mem,
			Observer:   obs,
			StepLimit:  stepLimit,
			Engine:     eng,
		}
		var prof vm.Profile
		err := vm.RunGroup(cfg, &prof)
		return mem.global, prof, obs.events, err
	}
	refMem, refProf, refEvents, refErr := run(vm.EngineInterp)
	gotMem, gotProf, gotEvents, gotErr := run(vm.EngineCompiled)

	if (refErr == nil) != (gotErr == nil) || (refErr != nil && refErr.Error() != gotErr.Error()) {
		t.Fatalf("errors differ:\n interp:   %v\n compiled: %v", refErr, gotErr)
	}
	if len(refEvents) != len(gotEvents) {
		t.Fatalf("observer stream length differs: interp %d, compiled %d", len(refEvents), len(gotEvents))
	}
	for i := range refEvents {
		if refEvents[i] != gotEvents[i] {
			t.Fatalf("observer stream diverges at event %d:\n interp:   %+v\n compiled: %+v", i, refEvents[i], gotEvents[i])
		}
	}
	if refErr != nil {
		return // callers discard memory and profile on failure
	}
	if !bytes.Equal(refMem, gotMem) {
		t.Fatalf("memory differs:\n interp:   %v\n compiled: %v", refMem, gotMem)
	}
	if !reflect.DeepEqual(refProf, gotProf) {
		t.Fatalf("profiles differ:\n interp:   %+v\n compiled: %+v", refProf, gotProf)
	}
}

// TestCompiledDivergentStores runs divergent kernels in which only a
// data-dependent subset of work-items performs stores; work-items that
// skip a branch must not write memory, bump counters or emit trace
// records. The compiled engine's stream must be event-for-event the
// interpreter's.
func TestCompiledDivergentStores(t *testing.T) {
	const src = `
__kernel void masked(__global int* out) {
	int gid = get_global_id(0);
	if (gid & 1) {
		out[gid] = gid * 3;
	}
	if (gid == 5) {
		out[0] = -1;
	}
}

__kernel void masked_loop(__global int* out) {
	int gid = get_global_id(0);
	int s = 0;
	for (int i = 0; i < gid; i++) {
		s += i;
		if (i == 2) { out[gid] = s; }
	}
	out[32 + gid] = s;
}
`
	args := func(m *flatMem) []vm.ArgValue {
		return []vm.ArgValue{{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)}}
	}
	for _, k := range []string{"masked", "masked_loop"} {
		k := k
		t.Run(k, func(t *testing.T) {
			runCompiledVsInterp(t, src, k, 16, args, 0)
		})
	}
}

// TestCompiledObserverCorpusIdentical runs the race-detector and
// line-profiler corpus kernels (racy local-memory shift, its
// barrier-fixed variant) under the compiled engine, requiring the
// ordered observer stream and the memory image to match the
// interpreter exactly. The racy kernel is the golden for
// stream-derived observables: races and hot lines are computed from
// this stream, so stream identity pins them.
func TestCompiledObserverCorpusIdentical(t *testing.T) {
	const local = 8
	args := func(m *flatMem) []vm.ArgValue {
		return []vm.ArgValue{
			{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)},
			{LocalSize: (local + 1) * 4},
		}
	}
	for _, k := range []string{"shift", "shift_fixed"} {
		k := k
		t.Run(k, func(t *testing.T) {
			prog := mustCompile(t, raceLocalSrc, "")
			run := func(eng vm.Engine) ([]streamEvent, []byte) {
				mem := newFlatMem(4096, nil)
				obs := &streamObserver{}
				cfg := &vm.GroupConfig{
					Kernel:     prog.Kernel(k),
					WorkDim:    1,
					LocalSize:  [3]int{local, 1, 1},
					GlobalSize: [3]int{local, 1, 1},
					Args:       args(mem),
					Mem:        mem,
					Observer:   obs,
					Engine:     eng,
				}
				var prof vm.Profile
				if err := vm.RunGroup(cfg, &prof); err != nil {
					t.Fatalf("RunGroup(%v): %v", eng, err)
				}
				return obs.events, mem.global
			}
			refEvents, refMem := run(vm.EngineInterp)
			gotEvents, gotMem := run(vm.EngineCompiled)
			if !reflect.DeepEqual(refEvents, gotEvents) {
				t.Fatalf("observer streams differ (interp %d events, compiled %d)", len(refEvents), len(gotEvents))
			}
			// Both engines run work-items in the same serial order, so
			// even the racy kernel's memory image must match.
			if !bytes.Equal(refMem, gotMem) {
				t.Fatalf("memory differs on %s", k)
			}
		})
	}
}

// TestCompiledDivergence checks work-items that branch apart, through
// nested and loop divergence, finish with the interpreter's exact
// state.
func TestCompiledDivergence(t *testing.T) {
	const src = `
__kernel void diverge(__global int* out, const int n) {
	int gid = get_global_id(0);
	int v = 0;
	if (gid < 4) {
		if (gid & 1) { v = gid * 100; } else { v = -gid; }
	} else {
		for (int i = 0; i < gid - 2; i++) { v += i * n; }
	}
	out[gid] = v + 7;
}
`
	runCompiledVsInterp(t, src, "diverge", 16, func(m *flatMem) []vm.ArgValue {
		return []vm.ArgValue{{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)}, {Bits: 3}}
	}, 0)
}

// TestCompiledBarrierPhases checks the barrier phase protocol, including
// work between barriers that depends on what other work-items wrote in
// the previous phase.
func TestCompiledBarrierPhases(t *testing.T) {
	const src = `
__kernel void phases(__global int* out, __local int* tile) {
	int lid = get_local_id(0);
	int n = get_local_size(0);
	tile[lid] = lid + 1;
	barrier(CLK_LOCAL_MEM_FENCE);
	int v = tile[(lid + 1) % n];
	barrier(CLK_LOCAL_MEM_FENCE);
	tile[lid] = v * 2;
	barrier(CLK_LOCAL_MEM_FENCE);
	out[lid] = tile[(lid + n - 1) % n];
}
`
	runCompiledVsInterp(t, src, "phases", 20, func(m *flatMem) []vm.ArgValue {
		return []vm.ArgValue{
			{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)},
			{LocalSize: 32 * 4},
		}
	}, 0)
}

// TestEngineBarrierDivergence: work-items disagreeing on barrier
// execution must yield ErrBarrierDivergence from every engine.
func TestEngineBarrierDivergence(t *testing.T) {
	const src = `
__kernel void bardiv(__global int* out) {
	int lid = get_local_id(0);
	if (lid < 2) {
		barrier(CLK_LOCAL_MEM_FENCE);
	}
	out[lid] = lid;
}
`
	prog := mustCompile(t, src, "")
	for _, eng := range []vm.Engine{vm.EngineInterp, vm.EngineCompiled} {
		mem := newFlatMem(4096, nil)
		cfg := &vm.GroupConfig{
			Kernel:     prog.Kernel("bardiv"),
			WorkDim:    1,
			LocalSize:  [3]int{4, 1, 1},
			GlobalSize: [3]int{4, 1, 1},
			Args:       []vm.ArgValue{{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)}},
			Mem:        mem,
			Engine:     eng,
		}
		var prof vm.Profile
		if err := vm.RunGroup(cfg, &prof); !errors.Is(err, vm.ErrBarrierDivergence) {
			t.Errorf("%v: err = %v, want ErrBarrierDivergence", eng, err)
		}
	}
}

// TestCompiledStepLimitBoundary sweeps the step limit across the exact
// trip point. The limit is group-cumulative, so the compiled engine
// must trip on precisely the work-item the interpreter trips on —
// including the stream truncation point — for limits landing before,
// on and after item boundaries.
func TestCompiledStepLimitBoundary(t *testing.T) {
	const src = `
__kernel void work(__global int* out) {
	int gid = get_global_id(0);
	int s = 0;
	for (int i = 0; i <= gid; i++) { s += i; }
	out[gid] = s;
}
`
	args := func(m *flatMem) []vm.ArgValue {
		return []vm.ArgValue{{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)}}
	}
	// Find the exact total step count of the group first.
	prog := mustCompile(t, src, "")
	mem := newFlatMem(4096, nil)
	var prof vm.Profile
	if err := vm.RunGroup(&vm.GroupConfig{
		Kernel: prog.Kernel("work"), WorkDim: 1,
		LocalSize: [3]int{8, 1, 1}, GlobalSize: [3]int{8, 1, 1},
		Args: args(mem), Mem: mem, Engine: vm.EngineInterp,
	}, &prof); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	total := prof.Instrs
	for _, limit := range []uint64{1, 2, 3, total / 4, total / 2, total - 1, total, total + 1} {
		limit := limit
		t.Run("", func(t *testing.T) {
			runCompiledVsInterp(t, src, "work", 8, args, limit)
		})
	}
}

// TestCompiledFaultIdentity: out-of-bounds accesses must surface the
// byte-identical error from the same work-item, with observer streams
// truncated at the same event — including a fault in the middle of the
// group, after which later work-items must not run.
func TestCompiledFaultIdentity(t *testing.T) {
	const src = `
__kernel void oob(__global int* out, const int bad) {
	int gid = get_global_id(0);
	int tmp[4];
	tmp[gid & 3] = gid;
	int idx = (gid == bad) ? 1000 : (gid & 3);
	out[gid] = tmp[idx];
}
`
	for _, bad := range []int64{0, 3, 7, 15} {
		bad := bad
		t.Run("", func(t *testing.T) {
			runCompiledVsInterp(t, src, "oob", 16, func(m *flatMem) []vm.ArgValue {
				return []vm.ArgValue{{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)}, {Bits: bad}}
			}, 0)
		})
	}
}

// TestCompiledAtomics: atomic read-modify-writes, including the extra
// OnAtomic callbacks, must match the oracle bit for bit.
func TestCompiledAtomics(t *testing.T) {
	const src = `
__kernel void count(__global int* hist, __global const int* in) {
	int gid = get_global_id(0);
	atomic_add(&hist[in[gid] & 3], 1);
}
`
	runCompiledVsInterp(t, src, "count", 16, func(m *flatMem) []vm.ArgValue {
		for i := 0; i < 16; i++ {
			m.putI32(64+4*i, int32(i*7))
		}
		return []vm.ArgValue{
			{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)},
			{Bits: ir.EncodeAddr(ir.SpaceGlobal, 64)},
		}
	}, 0)
}

// TestEnginePCOutOfRange: a hand-built kernel that jumps past the end
// of its code must fault with the interpreter's exact pc error, not
// crash, and the error must not consume a step.
func TestEnginePCOutOfRange(t *testing.T) {
	k := &ir.Kernel{
		Name: "jmpout",
		Code: []ir.Instr{
			{Op: ir.ImmI, A: 0, Imm: 1, Base: types.Int},
			{Op: ir.Jmp, Imm: 99},
		},
		NumI: 1,
	}
	var want string
	for _, eng := range []vm.Engine{vm.EngineInterp, vm.EngineCompiled} {
		var prof vm.Profile
		err := vm.RunGroup(&vm.GroupConfig{
			Kernel: k, WorkDim: 1,
			LocalSize: [3]int{4, 1, 1}, GlobalSize: [3]int{4, 1, 1},
			Mem: newFlatMem(64, nil), Engine: eng,
		}, &prof)
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("%v: err = %v, want pc out of range", eng, err)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Errorf("%v: error %q differs from interp %q", eng, err.Error(), want)
		}
	}
}

// TestCompiledVectorKernel exercises the vector arithmetic and memory
// paths: float4 arithmetic with vector loads and stores.
func TestCompiledVectorKernel(t *testing.T) {
	const src = `
__kernel void vec(__global float4* out, __global const float4* in) {
	int gid = get_global_id(0);
	float4 v = in[gid];
	out[gid] = v * v + (float4)(1.0f, 2.0f, 3.0f, 4.0f);
}
`
	runCompiledVsInterp(t, src, "vec", 16, func(m *flatMem) []vm.ArgValue {
		for i := 0; i < 64; i++ {
			m.putF32(1024+4*i, float32(i)*0.5)
		}
		return []vm.ArgValue{
			{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)},
			{Bits: ir.EncodeAddr(ir.SpaceGlobal, 1024)},
		}
	}, 0)
}

// TestCompiledBuiltins exercises the builtin call path:
// transcendentals whose profile counting and register traffic must
// match the interpreter per work-item.
func TestCompiledBuiltins(t *testing.T) {
	const src = `
__kernel void transc(__global float* out, __global const float* in) {
	int gid = get_global_id(0);
	float x = in[gid];
	out[gid] = sqrt(x) + exp(x * 0.01f) * sin(x);
}
`
	runCompiledVsInterp(t, src, "transc", 16, func(m *flatMem) []vm.ArgValue {
		for i := 0; i < 16; i++ {
			m.putF32(256+4*i, float32(i)+0.25)
		}
		return []vm.ArgValue{
			{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)},
			{Bits: ir.EncodeAddr(ir.SpaceGlobal, 256)},
		}
	}, 0)
}

// TestCompiledGroupSizes runs one kernel over a range of work-group
// sizes, from a single work-item up, including odd sizes.
func TestCompiledGroupSizes(t *testing.T) {
	const src = `
__kernel void tail(__global int* out) {
	int gid = get_global_id(0);
	out[gid] = gid * gid + 1;
}
`
	for _, local := range []int{1, 3, 15, 16, 17, 33} {
		local := local
		t.Run("", func(t *testing.T) {
			runCompiledVsInterp(t, src, "tail", local, func(m *flatMem) []vm.ArgValue {
				return []vm.ArgValue{{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)}}
			}, 0)
		})
	}
}

// The compiled engine drops and coalesces register instructions by
// whole-kernel liveness. The next three tests pin the liveness edges
// that a block-local or over-eager analysis gets wrong: each would
// drop a write whose value is still read, and the result would differ.

// TestCompiledLiveAcrossBlocks: k is written in the entry block and
// read only in the last one, after a loop and a branch.
func TestCompiledLiveAcrossBlocks(t *testing.T) {
	const src = `
__kernel void crossblock(__global int* out, const int n) {
	int gid = get_global_id(0);
	int k = gid * 3 + 7;
	int s = 0;
	for (int i = 0; i < n; i++) { s += i ^ gid; }
	if (gid & 1) { s -= 1; }
	out[gid] = s + k;
}
`
	runCompiledVsInterp(t, src, "crossblock", 16, func(m *flatMem) []vm.ArgValue {
		return []vm.ArgValue{{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)}, {Bits: 5}}
	}, 0)
}

// TestCompiledLiveAcrossBarrier: v is written before a barrier and read
// after it, so the barrier must pass liveness through to the resumed
// work-item.
func TestCompiledLiveAcrossBarrier(t *testing.T) {
	const src = `
__kernel void acrossbar(__global int* out, __local int* tile) {
	int lid = get_local_id(0);
	int v = lid * 5 + 1;
	float f = (float)lid * 0.5f;
	tile[lid] = lid;
	barrier(CLK_LOCAL_MEM_FENCE);
	out[lid] = v + tile[(lid + 1) & 7] + (int)(f * 4.0f);
}
`
	runCompiledVsInterp(t, src, "acrossbar", 8, func(m *flatMem) []vm.ArgValue {
		return []vm.ArgValue{{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)}, {LocalSize: 8 * 4}}
	}, 0)
}

// TestCompiledOverWideCallDef: dot and length name their operand width
// on the instruction, so ir.Def reports four lanes, but they write one.
// f5 and f7 sit inside those over-wide ranges and are live across the
// calls; if a CallB def killed them, their immediates would be dropped.
// The front end allocates a call's result above every earlier register,
// so the kernel is built as IR.
func TestCompiledOverWideCallDef(t *testing.T) {
	fl := func(in ir.Instr) ir.Instr { in.Base = types.Float; return in }
	k := &ir.Kernel{
		Name:   "overwide",
		Params: []ir.Param{{Name: "out", Class: ir.ParamGlobalPtr, Slot: 0}},
		Code: []ir.Instr{
			fl(ir.Instr{Op: ir.ImmF, A: 0, FImm: 1.5, Width: 4}),
			fl(ir.Instr{Op: ir.ImmF, A: 5, FImm: 7.25}),
			fl(ir.Instr{Op: ir.ImmF, A: 7, FImm: -3.5}),
			fl(ir.Instr{Op: ir.CallB, A: 4, B: 0, C: 0, Imm: int64(builtin.Dot), Width: 4}),
			fl(ir.Instr{Op: ir.CallB, A: 6, B: 0, Imm: int64(builtin.Length), Width: 4}),
			fl(ir.Instr{Op: ir.AddF, A: 8, B: 4, C: 5}),
			fl(ir.Instr{Op: ir.AddF, A: 9, B: 6, C: 7}),
			fl(ir.Instr{Op: ir.AddF, A: 10, B: 8, C: 9}),
			fl(ir.Instr{Op: ir.StoreF, A: 10, B: 0}),
			{Op: ir.Ret},
		},
		NumI: 1,
		NumF: 11,
	}
	args := func(m *flatMem) []vm.ArgValue {
		return []vm.ArgValue{{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)}}
	}
	runKernelCompiledVsInterp(t, k, 1, args, 0)

	mem := newFlatMem(64, nil)
	var prof vm.Profile
	if err := vm.RunGroup(&vm.GroupConfig{
		Kernel: k, WorkDim: 1, LocalSize: [3]int{1, 1, 1}, GlobalSize: [3]int{1, 1, 1},
		Args: args(mem), Mem: mem, Engine: vm.EngineCompiled,
	}, &prof); err != nil {
		t.Fatal(err)
	}
	// dot = 4·1.5² = 9, length = sqrt(9) = 3: 9+7.25 + 3-3.5 = 15.75.
	if got := mem.getF32(0); got != 15.75 {
		t.Fatalf("out[0] = %v, want 15.75", got)
	}
}

// TestCompiledRunsElide compiles every kernel of the nine benchmarks at
// both precisions and requires the compiled runs to dispatch at most
// three quarters of the IR instructions they count.
func TestCompiledRunsElide(t *testing.T) {
	for _, prec := range []bench.Precision{bench.F32, bench.F64} {
		slots, elided := 0, 0
		for _, b := range bench.All() {
			prog, err := clc.Compile(b.Name()+".cl", b.Source(), prec.BuildOptions())
			if err != nil {
				t.Fatalf("%s %v: %v", b.Name(), prec, err)
			}
			for _, name := range prog.KernelNames() {
				c := vm.CompileKernel(prog.Kernel(name))
				slots += c.RunSlots()
				elided += c.Elided()
			}
		}
		t.Logf("%v: %d of %d run slots elided or fused (%.1f%%)", prec, elided, slots, 100*float64(elided)/float64(slots))
		if elided*4 < slots {
			t.Errorf("%v: %d of %d run slots elided or fused, want at least 25%%", prec, elided, slots)
		}
	}
}
