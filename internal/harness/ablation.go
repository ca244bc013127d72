package harness

import (
	"fmt"

	"maligo/internal/cl"
	"maligo/internal/core"
)

// This file makes two of the paper's optimization arguments directly
// measurable as ablation experiments:
//
//   - §III-A "Memory allocation and mapping": explicit
//     clEnqueueWrite/ReadBuffer copies versus CL_MEM_ALLOC_HOST_PTR +
//     map/unmap on the unified-memory SoC. The paper's benchmarks all
//     use mapping; this experiment shows the copies they avoid.
//   - §III-B "Data Organization": Array-of-Structures versus
//     Structure-of-Arrays for a distance kernel. SoA lets every load
//     be a vector load of four like components, AoS cannot.

// HostMemResult compares the two host-memory strategies for one
// round-trip (upload, kernel, download).
type HostMemResult struct {
	Elements    int
	CopySeconds float64 // USE_HOST_PTR-style explicit copies
	MapSeconds  float64 // ALLOC_HOST_PTR + map/unmap
	CopyEnergyJ float64
	MapEnergyJ  float64
}

// Speedup returns how much faster the mapped path is.
func (r HostMemResult) Speedup() float64 {
	if r.MapSeconds == 0 {
		return 0
	}
	return r.CopySeconds / r.MapSeconds
}

const hostMemKernel = `
__kernel void triple(__global float* x, const uint n) {
    size_t i = get_global_id(0);
    if (i < n) {
        x[i] = x[i] * 3.0f;
    }
}`

// RunHostMemAblation measures copy-vs-map for an n-element round trip.
func RunHostMemAblation(n int) (HostMemResult, error) {
	res := HostMemResult{Elements: n}
	p := core.NewPlatform()
	ctx := p.Context
	prog := ctx.CreateProgramWithSource(hostMemKernel)
	if err := prog.Build(""); err != nil {
		return res, err
	}
	k, err := prog.CreateKernel("triple")
	if err != nil {
		return res, err
	}
	buf, err := ctx.CreateBuffer(cl.MemReadWrite|cl.MemAllocHostPtr, int64(n*4), nil)
	if err != nil {
		return res, err
	}
	if err := k.SetArgBuffer(0, buf); err != nil {
		return res, err
	}
	if err := k.SetArgInt(1, int64(n)); err != nil {
		return res, err
	}
	q := ctx.CreateCommandQueue(p.GPU)
	host := make([]byte, n*4)

	// Copy path: write, kernel, read — what a desktop-OpenCL port does.
	q.ResetEvents()
	if _, err := q.EnqueueWriteBuffer(buf, 0, host); err != nil {
		return res, err
	}
	if _, err := q.EnqueueNDRangeKernel(k, 1, []int{n}, []int{128}); err != nil {
		return res, err
	}
	if _, err := q.EnqueueReadBuffer(buf, 0, host); err != nil {
		return res, err
	}
	m, _ := p.Measure(q)
	res.CopySeconds = q.TotalSeconds()
	res.CopyEnergyJ = m.EnergyJ

	// Map path: map, touch, unmap, kernel, map, unmap — zero copies.
	q.ResetEvents()
	if _, _, err := q.EnqueueMapBuffer(buf, 0, int64(n*4)); err != nil {
		return res, err
	}
	q.EnqueueUnmapMemObject(buf)
	if _, err := q.EnqueueNDRangeKernel(k, 1, []int{n}, []int{128}); err != nil {
		return res, err
	}
	if _, _, err := q.EnqueueMapBuffer(buf, 0, int64(n*4)); err != nil {
		return res, err
	}
	q.EnqueueUnmapMemObject(buf)
	m, _ = p.Measure(q)
	res.MapSeconds = q.TotalSeconds()
	res.MapEnergyJ = m.EnergyJ
	return res, nil
}

// LayoutResult compares AoS and SoA data layouts for the same
// computation.
type LayoutResult struct {
	Points     int
	AoSSeconds float64
	SoASeconds float64
}

// Speedup returns SoA's advantage.
func (r LayoutResult) Speedup() float64 {
	if r.SoASeconds == 0 {
		return 0
	}
	return r.AoSSeconds / r.SoASeconds
}

const layoutKernels = `
// Distance-from-origin over 3D points.
// AoS: points packed as x,y,z records — vector loads cannot be used
// across points, each component is a scalar (strided) load.
__kernel void dist_aos(__global const float* pts, __global float* out, const uint n) {
    size_t i = get_global_id(0);
    if (i < n) {
        float x = pts[3 * i];
        float y = pts[3 * i + 1];
        float z = pts[3 * i + 2];
        out[i] = sqrt(x * x + y * y + z * z);
    }
}

// SoA: separate x/y/z arrays — each work-item handles four points with
// three vector loads and one vector store.
__kernel void dist_soa(__global const float* restrict xs,
                       __global const float* restrict ys,
                       __global const float* restrict zs,
                       __global float* restrict out) {
    size_t i = get_global_id(0);
    float4 x = vload4(i, xs);
    float4 y = vload4(i, ys);
    float4 z = vload4(i, zs);
    vstore4(sqrt(x * x + y * y + z * z), i, out);
}`

// RunLayoutAblation measures the AoS-vs-SoA gap for n points.
func RunLayoutAblation(n int) (LayoutResult, error) {
	res := LayoutResult{Points: n}
	p := core.NewPlatform()
	ctx := p.Context
	prog := ctx.CreateProgramWithSource(layoutKernels)
	if err := prog.Build(""); err != nil {
		return res, err
	}
	aosBuf, err := ctx.CreateBuffer(cl.MemReadOnly|cl.MemAllocHostPtr, int64(3*n*4), nil)
	if err != nil {
		return res, err
	}
	var soa [3]*cl.Buffer
	for c := range soa {
		if soa[c], err = ctx.CreateBuffer(cl.MemReadOnly|cl.MemAllocHostPtr, int64(n*4), nil); err != nil {
			return res, err
		}
	}
	out, err := ctx.CreateBuffer(cl.MemReadWrite|cl.MemAllocHostPtr, int64(n*4), nil)
	if err != nil {
		return res, err
	}
	q := ctx.CreateCommandQueue(p.GPU)

	ka, err := prog.CreateKernel("dist_aos")
	if err != nil {
		return res, err
	}
	if err := ka.SetArgBuffer(0, aosBuf); err != nil {
		return res, err
	}
	if err := ka.SetArgBuffer(1, out); err != nil {
		return res, err
	}
	if err := ka.SetArgInt(2, int64(n)); err != nil {
		return res, err
	}
	// Warm-up + measure.
	if _, err := q.EnqueueNDRangeKernel(ka, 1, []int{n}, []int{128}); err != nil {
		return res, err
	}
	q.ResetEvents()
	if _, err := q.EnqueueNDRangeKernel(ka, 1, []int{n}, []int{128}); err != nil {
		return res, err
	}
	res.AoSSeconds = q.TotalSeconds()

	ks, err := prog.CreateKernel("dist_soa")
	if err != nil {
		return res, err
	}
	for c := range soa {
		if err := ks.SetArgBuffer(c, soa[c]); err != nil {
			return res, err
		}
	}
	if err := ks.SetArgBuffer(3, out); err != nil {
		return res, err
	}
	if _, err := q.EnqueueNDRangeKernel(ks, 1, []int{n / 4}, []int{128}); err != nil {
		return res, err
	}
	q.ResetEvents()
	if _, err := q.EnqueueNDRangeKernel(ks, 1, []int{n / 4}, []int{128}); err != nil {
		return res, err
	}
	res.SoASeconds = q.TotalSeconds()
	return res, nil
}

// RenderAblations formats both ablation experiments.
func RenderAblations(hm HostMemResult, lo LayoutResult) string {
	return fmt.Sprintf(`Ablation: host memory strategy (paper §III-A)
=============================================
%d-element round trip (upload + kernel + download)
explicit copies (clEnqueueWrite/ReadBuffer)  %8.3f ms  %.5f J
map/unmap (CL_MEM_ALLOC_HOST_PTR)            %8.3f ms  %.5f J
mapping is %.1fx faster end to end

Ablation: data organization (paper §III-B)
==========================================
distance kernel over %d 3D points
AoS (x,y,z records, scalar loads)            %8.3f ms
SoA (component arrays, vload4)               %8.3f ms
SoA is %.1fx faster
`,
		hm.Elements, hm.CopySeconds*1000, hm.CopyEnergyJ,
		hm.MapSeconds*1000, hm.MapEnergyJ, hm.Speedup(),
		lo.Points, lo.AoSSeconds*1000, lo.SoASeconds*1000, lo.Speedup())
}
