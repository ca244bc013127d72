package opt

import (
	"strings"
	"testing"
)

// diffCase is one kernel in the differential suite. Each names the
// passes it expects to fire; the equivalence check always runs the
// full pipeline so pass interactions are covered too.
type diffCase struct {
	name    string
	src     string
	kernel  string
	global  int
	local   int
	scalar  int64 // value bound to every integer scalar parameter
	expect  []string
	minSite int
}

var diffCases = []diffCase{
	{
		name: "saxpy_inner_loop",
		src: `__kernel void saxpy(__global float* y, __global const float* x, float a, int n) {
			int base = get_global_id(0) * n;
			for (int i = 0; i < n; i++)
				y[base + i] = a * x[base + i] + y[base + i];
		}`,
		kernel: "saxpy", global: 8, local: 4, scalar: 19,
		expect: []string{"vectorize", "constrestrict"}, minSite: 1,
	},
	{
		name: "copy_unit_stride",
		src: `__kernel void copy(__global int* dst, __global const int* src, int n) {
			int base = get_global_id(0) * n;
			for (int i = 0; i < n; i++)
				dst[base + i] = src[base + i];
		}`,
		kernel: "copy", global: 4, local: 4, scalar: 23,
		expect: []string{"vectorize", "constrestrict"}, minSite: 1,
	},
	{
		name: "const_trip_unroll",
		src: `__kernel void acc(__global float* out, __global const float* in) {
			int g = get_global_id(0);
			float s = 0.0f;
			for (int i = 0; i < 4; i++)
				s += in[g * 4 + i];
			out[g] = s;
		}`,
		kernel: "acc", global: 8, local: 4, scalar: 0,
		expect: []string{"unroll", "constrestrict"}, minSite: 1,
	},
	{
		name: "private_aos_soa",
		src: `__kernel void pts(__global float* out, __global const float* in, int n) {
			float p[16]; /* 8 x {x,y} pairs */
			int g = get_global_id(0);
			for (int i = 0; i < 8; i++) {
				p[i * 2] = in[g * 16 + i];
				p[i * 2 + 1] = in[g * 16 + 8 + i];
			}
			float s = 0.0f;
			for (int i = 0; i < 8; i++)
				s += p[i * 2] * p[i * 2 + 1];
			out[g] = s;
		}`,
		kernel: "pts", global: 4, local: 2, scalar: 0,
		expect: []string{"soa", "constrestrict"}, minSite: 2,
	},
	{
		name: "reduction_stays_scalar",
		src: `__kernel void dot1(__global float* out, __global const float* a, __global const float* b, int n) {
			int g = get_global_id(0);
			float s = 0.0f;
			for (int i = 0; i < n; i++)
				s += a[g * n + i] * b[g * n + i];
			out[g] = s;
		}`,
		kernel: "dot1", global: 4, local: 2, scalar: 13,
		expect: []string{"constrestrict"}, minSite: 1,
	},
	{
		name: "stencil_mixed",
		src: `__kernel void st(__global float* out, __global const float* in, int n) {
			int base = get_global_id(0) * (n + 2);
			for (int i = 1; i <= n; i++)
				out[base + i] = in[base + i - 1] + in[base + i] + in[base + i + 1];
		}`,
		kernel: "st", global: 4, local: 2, scalar: 11,
		expect: []string{"vectorize", "constrestrict"}, minSite: 1,
	},
	{
		name: "branch_in_body_scalar_only",
		src: `__kernel void relu(__global float* io, int n) {
			int base = get_global_id(0) * n;
			for (int i = 0; i < n; i++) {
				float v = io[base + i];
				int keep = v > 0.5f;
				io[base + i] = v * (float)keep;
			}
		}`,
		kernel: "relu", global: 4, local: 2, scalar: 17,
		expect: []string{"vectorize"}, minSite: 1,
	},
	{
		name: "local_barrier_tile",
		src: `__kernel void tile(__global float* out, __global const float* in, __local float* tmp, int n) {
			int l = get_local_id(0);
			int g = get_global_id(0);
			tmp[l] = in[g];
			barrier(CLK_LOCAL_MEM_FENCE);
			float s = 0.0f;
			for (int i = 0; i < 4; i++)
				s += tmp[(l + i) % 8];
			out[g] = s;
		}`,
		kernel: "tile", global: 16, local: 8, scalar: 4,
		expect: []string{"unroll"}, minSite: 1,
	},
}

// TestDifferentialSuite proves the correctness contract on every
// representative kernel: results bit-identical to the untransformed
// interpreter run on both engines, with several data seeds and
// scalar bindings.
func TestDifferentialSuite(t *testing.T) {
	for _, tc := range diffCases {
		t.Run(tc.name, func(t *testing.T) {
			orig, out, rep := optimizeOne(t, tc.src, nil)
			ko, kx := orig.Kernels[tc.kernel], out.Kernels[tc.kernel]
			if ko == nil || kx == nil {
				t.Fatalf("kernel %q missing", tc.kernel)
			}
			applied := map[string]bool{}
			sites := 0
			for _, r := range rep.Results {
				if r.Kernel == tc.kernel && r.Applied {
					applied[r.Pass] = true
					sites += r.Sites
				}
			}
			for _, want := range tc.expect {
				if !applied[want] {
					t.Errorf("expected pass %q to apply; report:\n%s", want, rep)
				}
			}
			if sites < tc.minSite {
				t.Errorf("expected at least %d transformed sites, got %d", tc.minSite, sites)
			}
			for _, seed := range []uint64{1, 7, 1234567} {
				checkEquivalence(t, ko, kx, tc.global, tc.local, tc.scalar, seed)
			}
			// Alternate scalar bindings stress remainder loops (non
			// multiple-of-4 trips) and degenerate zero-trip loops.
			if tc.scalar != 0 {
				for _, s := range []int64{0, 1, 3, 4, 5, 64} {
					checkEquivalence(t, ko, kx, tc.global, tc.local, s, 99)
				}
			}
		})
	}
}

// TestTransformedKernelsStillOptimizable ensures the transformed IR
// is well-formed enough to go through the pipeline a second time
// without crashing (idempotence is NOT required — a remainder loop
// may legitimately be re-recognized — only stability).
func TestTransformedKernelsStillOptimizable(t *testing.T) {
	for _, tc := range diffCases {
		t.Run(tc.name, func(t *testing.T) {
			_, out, _ := optimizeOne(t, tc.src, nil)
			if _, _, err := OptimizeWith(out, nil); err != nil {
				t.Fatalf("second optimize failed: %v", err)
			}
		})
	}
}

// TestReportNamesAnalyzerPasses checks the report's Answers wiring:
// every applied result must cite at least one tier-2 analyzer pass so
// diagnostics and transforms stay cross-referenced.
func TestReportNamesAnalyzerPasses(t *testing.T) {
	_, _, rep := optimizeOne(t, diffCases[0].src, nil)
	for _, r := range rep.Results {
		if len(r.Answers) == 0 {
			t.Errorf("pass %s reports no analyzer linkage", r.Pass)
		}
		for _, a := range r.Answers {
			if strings.TrimSpace(a) == "" {
				t.Errorf("pass %s has an empty analyzer reference", r.Pass)
			}
		}
	}
}
