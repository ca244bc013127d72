package vm_test

import (
	"fmt"
	"math"
	"testing"

	"maligo/internal/clc"
	"maligo/internal/clc/ir"
	"maligo/internal/vm"
)

// flatMem is a trivial GlobalMemory backed by byte slices per space.
type flatMem struct {
	global   []byte
	constant []byte
}

func newFlatMem(globalSize int, constant []byte) *flatMem {
	return &flatMem{global: make([]byte, globalSize), constant: constant}
}

func (m *flatMem) space(s int) []byte {
	if s == ir.SpaceConstant {
		return m.constant
	}
	return m.global
}

// inBounds faults an access outside the space the way a real memory
// does, so fuzzed kernels can reach the global fault path.
func inBounds(mem []byte, off int64, size int) error {
	if off < 0 || off+int64(size) > int64(len(mem)) {
		return fmt.Errorf("flatmem: %d-byte access at %d outside %d bytes", size, off, len(mem))
	}
	return nil
}

func (m *flatMem) LoadBits(space int, off int64, size int) (uint64, error) {
	mem := m.space(space)
	if err := inBounds(mem, off, size); err != nil {
		return 0, err
	}
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(mem[off+int64(i)])
	}
	return v, nil
}

func (m *flatMem) StoreBits(space int, off int64, size int, bits uint64) error {
	mem := m.space(space)
	if err := inBounds(mem, off, size); err != nil {
		return err
	}
	for i := 0; i < size; i++ {
		mem[off+int64(i)] = byte(bits >> (8 * uint(i)))
	}
	return nil
}

func (m *flatMem) AtomicRMW(space int, off int64, size int, op vm.AtomicOp) (uint64, error) {
	old, err := m.LoadBits(space, off, size)
	if err != nil {
		return 0, err
	}
	return old, m.StoreBits(space, off, size, op.Apply(old))
}

func (m *flatMem) putF32(off int, v float32) {
	bits := math.Float32bits(v)
	for i := 0; i < 4; i++ {
		m.global[off+i] = byte(bits >> (8 * uint(i)))
	}
}

func (m *flatMem) getF32(off int) float32 {
	var bits uint32
	for i := 3; i >= 0; i-- {
		bits = bits<<8 | uint32(m.global[off+i])
	}
	return math.Float32frombits(bits)
}

func (m *flatMem) putI32(off int, v int32) {
	for i := 0; i < 4; i++ {
		m.global[off+i] = byte(uint32(v) >> (8 * uint(i)))
	}
}

func (m *flatMem) getI32(off int) int32 {
	var bits uint32
	for i := 3; i >= 0; i-- {
		bits = bits<<8 | uint32(m.global[off+i])
	}
	return int32(bits)
}

func mustCompile(t *testing.T, src, options string) *ir.Program {
	t.Helper()
	prog, err := clc.Compile("test.cl", src, options)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

// runNDRange1D executes a 1-D NDRange over all work-groups.
func runNDRange1D(t *testing.T, k *ir.Kernel, global, local int, args []vm.ArgValue, mem vm.GlobalMemory) *vm.Profile {
	t.Helper()
	prof := &vm.Profile{}
	for g := 0; g < global/local; g++ {
		cfg := &vm.GroupConfig{
			Kernel:     k,
			WorkDim:    1,
			GroupID:    [3]int{g, 0, 0},
			LocalSize:  [3]int{local, 1, 1},
			GlobalSize: [3]int{global, 1, 1},
			Args:       args,
			Mem:        mem,
		}
		if err := vm.RunGroup(cfg, prof); err != nil {
			t.Fatalf("RunGroup: %v", err)
		}
	}
	return prof
}

const vecaddSrc = `
__kernel void vecadd(__global const float* a,
                     __global const float* b,
                     __global float* c,
                     const uint n) {
    size_t i = get_global_id(0);
    if (i < n) {
        c[i] = a[i] + b[i];
    }
}
`

func TestVecAdd(t *testing.T) {
	prog := mustCompile(t, vecaddSrc, "")
	k := prog.Kernel("vecadd")
	if k == nil {
		t.Fatal("kernel vecadd not found")
	}
	const n = 64
	mem := newFlatMem(3*n*4, nil)
	for i := 0; i < n; i++ {
		mem.putF32(i*4, float32(i))
		mem.putF32(n*4+i*4, float32(2*i))
	}
	args := []vm.ArgValue{
		{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)},
		{Bits: ir.EncodeAddr(ir.SpaceGlobal, n*4)},
		{Bits: ir.EncodeAddr(ir.SpaceGlobal, 2*n*4)},
		{Bits: n},
	}
	prof := runNDRange1D(t, k, n, 16, args, mem)
	for i := 0; i < n; i++ {
		got := mem.getF32(2*n*4 + i*4)
		want := float32(3 * i)
		if got != want {
			t.Fatalf("c[%d] = %v, want %v", i, got, want)
		}
	}
	if prof.WorkItems != n {
		t.Errorf("WorkItems = %d, want %d", prof.WorkItems, n)
	}
	if prof.F32Instrs == 0 {
		t.Error("expected F32 instruction counts")
	}
}

const vecadd4Src = `
#define REAL float
#define REAL4 float4
__kernel void vecadd4(__global const REAL* restrict a,
                      __global const REAL* restrict b,
                      __global REAL* restrict c) {
    size_t i = get_global_id(0);
    REAL4 va = vload4(i, a);
    REAL4 vb = vload4(i, b);
    vstore4(va + vb, i, c);
}
`

func TestVecAddVectorized(t *testing.T) {
	prog := mustCompile(t, vecadd4Src, "")
	k := prog.Kernel("vecadd4")
	const n = 64
	mem := newFlatMem(3*n*4, nil)
	for i := 0; i < n; i++ {
		mem.putF32(i*4, float32(i))
		mem.putF32(n*4+i*4, float32(i)*0.5)
	}
	args := []vm.ArgValue{
		{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)},
		{Bits: ir.EncodeAddr(ir.SpaceGlobal, n*4)},
		{Bits: ir.EncodeAddr(ir.SpaceGlobal, 2*n*4)},
	}
	runNDRange1D(t, k, n/4, 4, args, mem)
	for i := 0; i < n; i++ {
		got := mem.getF32(2*n*4 + i*4)
		want := float32(i) + float32(i)*0.5
		if got != want {
			t.Fatalf("c[%d] = %v, want %v", i, got, want)
		}
	}
	if k.MaxVectorWidth < 4 {
		t.Errorf("MaxVectorWidth = %d, want >= 4", k.MaxVectorWidth)
	}
	if k.RestrictParams != 3 {
		t.Errorf("RestrictParams = %d, want 3", k.RestrictParams)
	}
}

const reduceSrc = `
__kernel void reduce(__global const float* in,
                     __global float* out,
                     __local float* scratch,
                     const uint n) {
    size_t gid = get_global_id(0);
    size_t lid = get_local_id(0);
    size_t ls  = get_local_size(0);
    scratch[lid] = (gid < n) ? in[gid] : 0.0f;
    barrier(CLK_LOCAL_MEM_FENCE);
    for (size_t s = ls / 2; s > 0; s = s / 2) {
        if (lid < s) {
            scratch[lid] = scratch[lid] + scratch[lid + s];
        }
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    if (lid == 0) {
        out[get_group_id(0)] = scratch[0];
    }
}
`

func TestReductionWithBarrier(t *testing.T) {
	prog := mustCompile(t, reduceSrc, "")
	k := prog.Kernel("reduce")
	if !k.UsesBarrier {
		t.Fatal("kernel should be marked as using barriers")
	}
	const n, local = 128, 32
	mem := newFlatMem(n*4+(n/local)*4, nil)
	var want float64
	for i := 0; i < n; i++ {
		mem.putF32(i*4, float32(i))
		want += float64(i)
	}
	args := []vm.ArgValue{
		{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)},
		{Bits: ir.EncodeAddr(ir.SpaceGlobal, n*4)},
		{LocalSize: local * 4},
		{Bits: n},
	}
	prof := runNDRange1D(t, k, n, local, args, mem)
	var got float64
	for g := 0; g < n/local; g++ {
		got += float64(mem.getF32(n*4 + g*4))
	}
	if got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	if prof.Barriers == 0 {
		t.Error("expected barrier executions in profile")
	}
}

const histSrc = `
__kernel void hist(__global const int* data,
                   __global int* bins,
                   const int nbins,
                   const uint n) {
    size_t i = get_global_id(0);
    if (i < n) {
        int b = data[i] % nbins;
        atomic_add(&bins[b], 1);
    }
}
`

func TestAtomicHistogram(t *testing.T) {
	prog := mustCompile(t, histSrc, "")
	k := prog.Kernel("hist")
	const n, nbins = 256, 8
	mem := newFlatMem(n*4+nbins*4, nil)
	for i := 0; i < n; i++ {
		mem.putI32(i*4, int32(i*7))
	}
	args := []vm.ArgValue{
		{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)},
		{Bits: ir.EncodeAddr(ir.SpaceGlobal, n*4)},
		{Bits: nbins},
		{Bits: n},
	}
	prof := runNDRange1D(t, k, n, 32, args, mem)
	var total int32
	for b := 0; b < nbins; b++ {
		total += mem.getI32(n*4 + b*4)
	}
	if total != n {
		t.Fatalf("histogram total = %d, want %d", total, n)
	}
	if prof.Atomics != n {
		t.Errorf("Atomics = %d, want %d", prof.Atomics, n)
	}
}

const doubleSrc = `
#pragma OPENCL EXTENSION cl_khr_fp64 : enable
__kernel void scale(__global double* x, const double k, const uint n) {
    size_t i = get_global_id(0);
    if (i < n) {
        x[i] = x[i] * k;
    }
}
`

func TestDoublePrecision(t *testing.T) {
	prog := mustCompile(t, doubleSrc, "")
	k := prog.Kernel("scale")
	if !k.UsesDouble {
		t.Fatal("kernel should be marked as using double")
	}
	const n = 16
	mem := newFlatMem(n*8, nil)
	for i := 0; i < n; i++ {
		bits := math.Float64bits(float64(i) + 0.25)
		for b := 0; b < 8; b++ {
			mem.global[i*8+b] = byte(bits >> (8 * uint(b)))
		}
	}
	args := []vm.ArgValue{
		{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)},
		{F: 3.0},
		{Bits: n},
	}
	runNDRange1D(t, k, n, 4, args, mem)
	for i := 0; i < n; i++ {
		var bits uint64
		for b := 7; b >= 0; b-- {
			bits = bits<<8 | uint64(mem.global[i*8+b])
		}
		got := math.Float64frombits(bits)
		want := (float64(i) + 0.25) * 3.0
		if got != want {
			t.Fatalf("x[%d] = %v, want %v", i, got, want)
		}
	}
}

const helperSrc = `
inline float square(float x) { return x * x; }
float cube(float x) { return x * square(x); }

__kernel void apply(__global float* x, const uint n) {
    size_t i = get_global_id(0);
    if (i < n) {
        x[i] = cube(x[i]) + square(x[i]);
    }
}
`

func TestHelperInlining(t *testing.T) {
	prog := mustCompile(t, helperSrc, "")
	k := prog.Kernel("apply")
	const n = 8
	mem := newFlatMem(n*4, nil)
	for i := 0; i < n; i++ {
		mem.putF32(i*4, float32(i))
	}
	args := []vm.ArgValue{
		{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)},
		{Bits: n},
	}
	runNDRange1D(t, k, n, 4, args, mem)
	for i := 0; i < n; i++ {
		x := float32(i)
		want := x*x*x + x*x
		if got := mem.getF32(i * 4); got != want {
			t.Fatalf("x[%d] = %v, want %v", i, got, want)
		}
	}
}

const constantSrc = `
__constant float weights[4] = {0.1f, 0.2f, 0.3f, 0.4f};

__kernel void weighted(__global float* x, const uint n) {
    size_t i = get_global_id(0);
    if (i < n) {
        x[i] = x[i] * weights[i % 4];
    }
}
`

func TestConstantArray(t *testing.T) {
	prog := mustCompile(t, constantSrc, "")
	if len(prog.ConstantData) != 16 {
		t.Fatalf("constant segment = %d bytes, want 16", len(prog.ConstantData))
	}
	k := prog.Kernel("weighted")
	const n = 8
	mem := newFlatMem(n*4, prog.ConstantData)
	for i := 0; i < n; i++ {
		mem.putF32(i*4, 10)
	}
	args := []vm.ArgValue{
		{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)},
		{Bits: n},
	}
	runNDRange1D(t, k, n, 4, args, mem)
	weights := []float32{0.1, 0.2, 0.3, 0.4}
	for i := 0; i < n; i++ {
		want := 10 * weights[i%4]
		if got := mem.getF32(i * 4); got != want {
			t.Fatalf("x[%d] = %v, want %v", i, got, want)
		}
	}
}

const privateArraySrc = `
__kernel void sums(__global int* out, const uint n) {
    size_t i = get_global_id(0);
    int acc[4];
    for (int j = 0; j < 4; j++) {
        acc[j] = (int)i + j;
    }
    int total = 0;
    for (int j = 0; j < 4; j++) {
        total += acc[j];
    }
    if (i < n) {
        out[i] = total;
    }
}
`

func TestPrivateArray(t *testing.T) {
	prog := mustCompile(t, privateArraySrc, "")
	k := prog.Kernel("sums")
	if k.PrivateBytes < 16 {
		t.Fatalf("PrivateBytes = %d, want >= 16", k.PrivateBytes)
	}
	const n = 8
	mem := newFlatMem(n*4, nil)
	args := []vm.ArgValue{
		{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)},
		{Bits: n},
	}
	runNDRange1D(t, k, n, 4, args, mem)
	for i := 0; i < n; i++ {
		want := int32(4*i + 6)
		if got := mem.getI32(i * 4); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

const swizzleSrc = `
__kernel void swiz(__global float* out) {
    float4 v = (float4)(1.0f, 2.0f, 3.0f, 4.0f);
    float2 hi = v.hi;
    v.x = hi.y;
    out[0] = v.x;
    out[1] = dot(v, (float4)(1.0f));
    out[2] = v.s3;
}
`

func TestSwizzleAndDot(t *testing.T) {
	prog := mustCompile(t, swizzleSrc, "")
	k := prog.Kernel("swiz")
	mem := newFlatMem(12, nil)
	args := []vm.ArgValue{{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)}}
	runNDRange1D(t, k, 1, 1, args, mem)
	if got := mem.getF32(0); got != 4 {
		t.Errorf("out[0] = %v, want 4", got)
	}
	if got := mem.getF32(4); got != 13 {
		t.Errorf("out[1] = %v, want 13 (4+2+3+4)", got)
	}
	if got := mem.getF32(8); got != 4 {
		t.Errorf("out[2] = %v, want 4", got)
	}
}
