package vm_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"maligo/internal/clc"
	"maligo/internal/clc/ir"
	"maligo/internal/vm"
)

// fuzzKernelSource builds the generated kernel for one fuzz input. The
// seed's low bits pick one of three templates: the original
// expression-tree shape, a divergent-control shape (data-dependent
// branches so work-items of one group take different paths), and a
// barrier-in-loop shape (barriers inside a data-dependent loop so the
// phase protocol runs a data-dependent number of times).
//
// A second selector, seed bits 40–47 mod 3, picks two later templates
// before the first selector is consulted: a float shape and a gather
// shape. It reads 0 for every seed that predates them, so those keep
// their templates.
func fuzzKernelSource(seed uint64, expr string) string {
	switch (seed >> 40 & 0xFF) % 3 {
	case 1: // float: immediates, moves, compares, selects and a loop-carried accumulator
		return fmt.Sprintf(`__kernel void f(__global int* out, __global const int* in,
		                                 const int a, const int b, const int idx) {
			int gid = get_global_id(0);
			int c = in[(gid + idx) & 3];
			float x = (float)(c & 1023) * 0.25f;
			float y = (float)a - 1.5f;
			float m = 0.5f;
			float acc = 0.0f;
			float ftmp[4];
			ftmp[gid & 3] = x;
			for (int i = 0; i < (idx & 127); i++) {
				float t = acc * 0.5f + x;
				float s = (t < y) ? t : y - 2.0f;
				if (s != 1.0f) { m = s; }
				float2 p = (float2)(t, m);
				float2 q = (float2)(y, 3.0f);
				float2 v = (p <= q) ? p : q;
				acc = t - v.y * 0.125f + ftmp[i & 3];
				x = x + 1.0f;
			}
			float r = (acc <= 100.0f) ? acc : 100.0f;
			out[gid] = (%s) + (int)(r * 8.0f) + (int)m + (int)ftmp[(b >> 8) & 7];
		}`, expr)
	case 2: // gather: long indices read through an index array, negative and overflowing
		return fmt.Sprintf(`__kernel void f(__global int* out, __global const int* in,
		                                 const int a, const int b, const int idx) {
			int gid = get_global_id(0);
			int c = in[gid & 3];
			int tmp[4];
			tmp[gid & 3] = c ^ a;
			long s = 0;
			for (int i = 0; i < ((idx & 63) + 1); i++) {
				int j = in[(gid + i) & 3];
				s += in[(long)((j ^ b) & 3)];
				s += tmp[(long)(j & 3)] * 3;
			}
			if (idx & 64) {
				long k = (long)in[idx & 3] >> (idx & 31);
				s += in[k];
			}
			if (idx & 128) {
				s += tmp[(long)(b * 65536)];
			}
			if (idx & 256) {
				s += in[(long)a - 4];
			}
			out[gid] = (%s) + (int)s;
		}`, expr)
	}
	switch (seed >> 1) % 3 {
	case 1: // divergent control: branches + early loop exit keyed on gid
		return fmt.Sprintf(`__kernel void f(__global int* out, __global const int* in,
		                                 const int a, const int b, const int idx) {
			int gid = get_global_id(0);
			int c = in[(gid + idx) & 3];
			int tmp[4];
			tmp[gid & 3] = c ^ a;
			int s = 0;
			if ((gid ^ idx) & 1) {
				s = a - gid;
				for (int i = 0; i < ((idx & 63) + gid); i++) {
					s += tmp[(i + gid) & 3] ^ i;
					if (s > b) { s -= b; }
				}
			} else {
				for (int i = 0; i < (idx & 255); i++) {
					s += tmp[i & 3] + i;
				}
			}
			out[gid] = (%s) + s + tmp[idx & 7];
		}`, expr)
	case 2: // barrier in data-dependent loop, divergent work between phases
		return fmt.Sprintf(`__kernel void f(__global int* out, __global const int* in,
		                                 const int a, const int b, const int idx) {
			__local int tile[4];
			int gid = get_global_id(0);
			int lid = get_local_id(0);
			int c = in[(gid + idx) & 3];
			int tmp[4];
			tmp[gid & 3] = c ^ a;
			int s = 0;
			for (int i = 0; i < ((idx & 15) + 1); i++) {
				tile[lid] = s + c + i;
				barrier(CLK_LOCAL_MEM_FENCE);
				if ((lid + i) & 1) {
					s += tile[3 - lid] * 3;
				} else {
					s ^= tile[(lid + 1) & 3] + b;
				}
				barrier(CLK_LOCAL_MEM_FENCE);
			}
			out[gid] = (%s) + s + tmp[idx & 7];
		}`, expr)
	}
	return fmt.Sprintf(`__kernel void f(__global int* out, __global const int* in,
	                                 const int a, const int b, const int idx) {
		int gid = get_global_id(0);
		int c = in[(gid + idx) & 3];
		int tmp[4];
		tmp[gid & 3] = c ^ a;
		int s = 0;
		for (int i = 0; i < (idx & 255); i++) {
			s += tmp[i & 3] + i;
		}
		out[gid] = (%s) + s + tmp[idx & 7];
	}`, expr)
}

// FuzzEngineEquivalence is the engine cross-check: it generates a
// random kernel (expression tree over scalars plus global loads, a
// private scratch array, data-dependent control flow and optionally
// barriers in loops), runs the same work-group under the reference
// interpreter and the compiled fast path, and requires both to agree
// on every outcome — the final global
// memory image and execution profile on success, the fault on failure.
// The loop bounds and the scratch index derive from fuzz inputs, so
// the corpus naturally explores step-limit exhaustion, divergence
// reconvergence and private out-of-bounds faults as well as clean
// runs.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(uint64(1), int32(0), int32(0), int32(0))
	f.Add(uint64(42), int32(7), int32(-3), int32(5))
	f.Add(uint64(0x9E3779B9), int32(-100), int32(100), int32(63))
	f.Add(uint64(12345), int32(1<<30), int32(-(1 << 30)), int32(1023))
	f.Add(uint64(777), int32(-1), int32(-1), int32(-1))
	// Dependency-chain shapes: these idx values drive the generated
	// kernel's loop-carried accumulation to its extremes — the longest
	// chain (idx&255 == 255), a chain ending in the private
	// out-of-bounds fault (idx&7 > 3), and chains whose loads alias the
	// same in[] slot — the data-flow analogues of deep and diamond
	// command DAGs in the queue scheduler.
	f.Add(uint64(0xDEADBEEF), int32(3), int32(9), int32(255))                     // longest loop chain
	f.Add(uint64(0xCAFEBABE), int32(-7), int32(11), int32(0xFF07))                // long chain into tmp[7] fault
	f.Add(uint64(0x0F0F0F0F), int32(1), int32(1), int32(4))                       // chain ending out of bounds
	f.Add(uint64(0xFFFFFFFFFFFFFFFF), int32(1<<31-1), int32(1<<31-1), int32(128)) // overflow mid-chain
	f.Add(uint64(2), int32(0), int32(-(1 << 31)), int32(131))                     // aliased loads, odd chain length
	f.Add(uint64(0x123456789ABCDEF), int32(85), int32(-86), int32(252))           // near-max chain, sign flips
	// Divergent-control seeds: template 1 (per-work-item branch and
	// loop trip counts) and template 2 (barrier in a data-dependent
	// loop) at characteristic corners, including
	// step-limit exhaustion inside the divergent region and the
	// private out-of-bounds fault behind a divergent branch.
	f.Add(uint64(3), int32(5), int32(2), int32(63))       // divergent control, both arms taken
	f.Add(uint64(3), int32(-9), int32(0), int32(0xFF05))  // divergent control into tmp[5] fault
	f.Add(uint64(9), int32(1), int32(7), int32(255))      // divergent control, near step limit
	f.Add(uint64(5), int32(11), int32(-4), int32(15))     // barrier-in-loop, max phases
	f.Add(uint64(5), int32(0), int32(0), int32(0))        // barrier-in-loop, single phase
	f.Add(uint64(11), int32(-1), int32(1), int32(0xFF04)) // barrier-in-loop into tmp[4] fault
	// Float and gather seeds (second selector, seed bits 40–47): folded
	// float immediates and compares, coalesced accumulator moves, fused
	// index addresses in front of private and global faults, and the
	// step limit tripping inside loop bodies whose runs drop
	// instructions.
	f.Add(uint64(1<<40|0x1234), int32(3), int32(0x100), int32(12))     // float, clean
	f.Add(uint64(1<<40|0x0BADF00D), int32(-7), int32(0x700), int32(9)) // float, ftmp[7] private fault
	f.Add(uint64(1<<40|7), int32(1<<30), int32(0), int32(127))         // float, step limit in the loop
	f.Add(uint64(2<<40|0x0102030405), int32(1), int32(2), int32(15))   // gather, clean
	f.Add(uint64(2<<40|0x7FFFFFFF), int32(0), int32(0), int32(64|1))   // gather, huge long index, global fault
	f.Add(uint64(2<<40|5), int32(0), int32(0x7FFF), int32(128))        // gather, overflowing int index, private fault
	f.Add(uint64(2<<40|9), int32(-100), int32(0), int32(256))          // gather, negative index wraps below global
	f.Add(uint64(2<<40|0x33), int32(2), int32(1<<16), int32(128|3))    // gather, index overflows to 0, clean
	f.Add(uint64(2<<40|0x5A5A5A5A), int32(5), int32(-9), int32(63))    // gather, step limit in the loop

	f.Fuzz(func(t *testing.T, seed uint64, a, b, idx int32) {
		g := &exprGen{seed: seed | 1}
		g.gen(3)
		expr := g.sb.String()
		src := fuzzKernelSource(seed, expr)
		prog, err := clc.Compile("fuzzeq.cl", src, "")
		if err != nil {
			t.Fatalf("generated kernel failed to compile: %v\nexpr: %s", err, expr)
		}
		run := func(eng vm.Engine) ([]byte, vm.Profile, error) {
			mem := newFlatMem(64, nil)
			for i := 0; i < 4; i++ {
				mem.putI32(16+4*i, int32(seed>>(8*uint(i)))) // in[]
			}
			cfg := &vm.GroupConfig{
				Kernel:     prog.Kernel("f"),
				WorkDim:    1,
				LocalSize:  [3]int{4, 1, 1},
				GlobalSize: [3]int{4, 1, 1},
				Args: []vm.ArgValue{
					{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)},
					{Bits: ir.EncodeAddr(ir.SpaceGlobal, 16)},
					{Bits: int64(a)}, {Bits: int64(b)}, {Bits: int64(idx)},
				},
				Mem:       mem,
				StepLimit: 4096,
				Engine:    eng,
			}
			var prof vm.Profile
			err := vm.RunGroup(cfg, &prof)
			return mem.global, prof, err
		}

		refMem, refProf, refErr := run(vm.EngineInterp)
		gotMem, gotProf, gotErr := run(vm.EngineCompiled)
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("engines disagree on failure:\n interp:   %v\n compiled: %v\nexpr: %s", refErr, gotErr, expr)
		}
		if refErr != nil {
			// On failure callers discard memory and profile; the
			// engines must agree on the fault itself.
			if refErr.Error() != gotErr.Error() {
				t.Fatalf("fault differs:\n interp:   %v\n compiled: %v\nexpr: %s", refErr, gotErr, expr)
			}
			return
		}
		if !bytes.Equal(refMem, gotMem) {
			t.Fatalf("global memory differs\n interp:   %v\n compiled: %v\nexpr: %s", refMem, gotMem, expr)
		}
		if !reflect.DeepEqual(refProf, gotProf) {
			t.Fatalf("profiles differ\n interp:   %+v\n compiled: %+v\nexpr: %s", refProf, gotProf, expr)
		}
	})
}
