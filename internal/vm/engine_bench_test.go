package vm_test

import (
	"testing"

	"maligo/internal/clc"
	"maligo/internal/clc/ir"
	"maligo/internal/vm"
)

// Engine benchmarks: one full work-group execution per iteration, the
// same kernels under the reference interpreter and the compiled fast
// path. They isolate the VM layer: run them with -count of 10 or more
// before and after touching either engine's hot path and compare the
// distributions, then confirm on repobench's end-to-end sweep.
// `make bench-smoke` runs one iteration on every verify.
//
// The four kernels cover the execution profiles that dominate the
// paper's benchmarks: a multiply-accumulate loop (arithmetic pipe), a
// strided sum over global memory (load/store pipe), a local-memory
// reduction with barriers (work-item switching) and a CSR-style gather
// through an index array, whose sign-extended, scaled index chains
// front every access (spmv's inner loop).
var engineBenchKernels = []struct {
	name string
	src  string
}{
	{"arith", `__kernel void k(__global float* out, __global const float* in, const int n) {
		int gid = get_global_id(0);
		float acc = in[gid & 63];
		for (int i = 0; i < n; i++) {
			acc = acc * 1.000001f + 0.5f;
		}
		out[gid & 63] = acc;
	}`},
	{"memory", `__kernel void k(__global float* out, __global const float* in, const int n) {
		int gid = get_global_id(0);
		float acc = 0.0f;
		for (int i = 0; i < n; i++) {
			acc += in[(gid + i) & 63];
		}
		out[gid & 63] = acc;
	}`},
	{"barrier", `__kernel void k(__global float* out, __global const float* in, const int n) {
		__local float tile[64];
		int lid = get_local_id(0);
		float acc = 0.0f;
		for (int i = 0; i < n; i++) {
			tile[lid] = in[(lid + i) & 63];
			barrier(CLK_LOCAL_MEM_FENCE);
			acc += tile[63 - lid];
			barrier(CLK_LOCAL_MEM_FENCE);
		}
		out[lid] = acc;
	}`},
	{"gather", `__kernel void k(__global float* out, __global const float* in, const int n,
	                            __global const int* colidx) {
		int gid = get_global_id(0);
		float acc = 0.0f;
		for (int j = 0; j < n; j++) {
			acc += in[j & 63] * in[colidx[(gid + j) & 63]];
		}
		out[gid & 63] = acc;
	}`},
}

func benchmarkEngineKernel(b *testing.B, src string, eng vm.Engine) {
	prog, err := clc.Compile("bench.cl", src, "")
	if err != nil {
		b.Fatalf("compile: %v", err)
	}
	mem := newFlatMem(1024, nil)
	for i := 0; i < 64; i++ {
		mem.putF32(256+4*i, float32(i)*0.25)
		mem.putI32(512+4*i, int32((i*37)&63)) // the gather kernel's colidx
	}
	cfg := &vm.GroupConfig{
		Kernel:     prog.Kernel("k"),
		WorkDim:    1,
		LocalSize:  [3]int{64, 1, 1},
		GlobalSize: [3]int{64, 1, 1},
		Args: []vm.ArgValue{
			{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)},
			{Bits: ir.EncodeAddr(ir.SpaceGlobal, 256)},
			{Bits: 100},
			{Bits: ir.EncodeAddr(ir.SpaceGlobal, 512)}, // colidx; only gather declares it
		},
		Mem:    mem,
		Engine: eng,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var prof vm.Profile
		if err := vm.RunGroup(cfg, &prof); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngine(b *testing.B) {
	for _, k := range engineBenchKernels {
		b.Run(k.name+"/interp", func(b *testing.B) {
			benchmarkEngineKernel(b, k.src, vm.EngineInterp)
		})
		b.Run(k.name+"/compiled", func(b *testing.B) {
			benchmarkEngineKernel(b, k.src, vm.EngineCompiled)
		})
	}
}
