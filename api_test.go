package maligo_test

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"maligo"
)

const saxpySrc = `
__kernel void saxpy(__global const float* x,
                    __global float* y,
                    const float a,
                    const uint n) {
    size_t i = get_global_id(0);
    if (i < n) {
        y[i] = a * x[i] + y[i];
    }
}
`

// saxpyRun executes one measured saxpy region on a fresh platform with
// the given engine worker count and returns the output bytes and the
// measurement.
func saxpyRun(t *testing.T, workers int) ([]byte, maligo.Measurement, maligo.Activity) {
	t.Helper()
	const n = 1 << 14
	p := maligo.NewPlatform(maligo.WithWorkers(workers))
	defer p.Close()
	ctx := p.Context

	prog := ctx.CreateProgramWithSource(saxpySrc)
	if err := prog.Build(""); err != nil {
		t.Fatalf("build: %v\n%s", err, prog.BuildLog())
	}
	kernel, err := prog.CreateKernel("saxpy")
	if err != nil {
		t.Fatal(err)
	}

	host := make([]byte, n*4)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(host[i*4:], math.Float32bits(float32(i)))
	}
	bufX, err := ctx.CreateBuffer(maligo.MemReadOnly|maligo.MemCopyHostPtr, n*4, host)
	if err != nil {
		t.Fatal(err)
	}
	bufY, err := ctx.CreateBuffer(maligo.MemReadWrite|maligo.MemCopyHostPtr, n*4, host)
	if err != nil {
		t.Fatal(err)
	}
	kernel.SetArgBuffer(0, bufX)
	kernel.SetArgBuffer(1, bufY)
	kernel.SetArgFloat(2, 2.5)
	kernel.SetArgInt(3, n)

	q := ctx.CreateCommandQueue(p.Mali())
	if _, err := q.EnqueueNDRangeKernel(kernel, 1, []int{n}, []int{64}); err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	q.Finish()
	meas, act := p.Measure(q)

	out := make([]byte, n*4)
	if _, err := q.EnqueueReadBuffer(bufY, 0, out); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got := math.Float32frombits(binary.LittleEndian.Uint32(out[i*4:]))
		want := 2.5*float32(i) + float32(i)
		if got != want {
			t.Fatalf("y[%d] = %g, want %g", i, got, want)
		}
	}
	return out, meas, act
}

// TestPublicAPIDeterminism drives the whole public surface — platform
// options, buffers, kernels, queue, Measure — and checks the serial
// and sharded engines agree bit for bit on output and measurement.
func TestPublicAPIDeterminism(t *testing.T) {
	serialOut, serialMeas, serialAct := saxpyRun(t, 1)
	shardedOut, shardedMeas, shardedAct := saxpyRun(t, 4)

	for i := range serialOut {
		if serialOut[i] != shardedOut[i] {
			t.Fatalf("output differs at byte %d", i)
		}
	}
	if serialMeas != shardedMeas {
		t.Errorf("measurements differ:\n serial:  %+v\n sharded: %+v", serialMeas, shardedMeas)
	}
	if serialAct != shardedAct {
		t.Errorf("activity differs:\n serial:  %+v\n sharded: %+v", serialAct, shardedAct)
	}
	if serialMeas.EnergyJ <= 0 || serialMeas.MeanPowerW <= 0 {
		t.Errorf("implausible measurement: %+v", serialMeas)
	}
}

// TestPlatformOptions checks the remaining NewPlatform options take
// effect through the façade, and that a standalone NewContext accepts
// the same option vocabulary.
func TestPlatformOptions(t *testing.T) {
	p := maligo.NewPlatform(
		maligo.WithArenaBytes(1<<22),
		maligo.WithWorkers(2),
		maligo.WithMeterHz(100),
		maligo.WithMeterSeed(7),
	)
	defer p.Close()
	if got := p.Context.ArenaBytes(); got != 1<<22 {
		t.Errorf("ArenaBytes = %d, want %d", got, 1<<22)
	}
	if got := p.Context.Workers(); got != 2 {
		t.Errorf("Workers = %d, want 2", got)
	}
	if got := p.Meter.SampleHz(); got != 100 {
		t.Errorf("SampleHz = %g, want 100", got)
	}
	info := p.Context.DeviceInfo(p.Mali())
	if info.GlobalMemBytes != 1<<22 {
		t.Errorf("DeviceInfo.GlobalMemBytes = %d, want %d", info.GlobalMemBytes, 1<<22)
	}
	if p.CPU() == nil || p.CPUDual() == nil || p.Mali() == nil {
		t.Error("device accessors returned nil")
	}

	ctx := maligo.NewContext(
		maligo.WithDevices(p.Mali()),
		maligo.WithArenaBytes(1<<20),
		maligo.WithWorkers(1),
	)
	defer ctx.Close()
	if got := ctx.ArenaBytes(); got != 1<<20 {
		t.Errorf("NewContext ArenaBytes = %d, want %d", got, 1<<20)
	}
	if got := ctx.Workers(); got != 1 {
		t.Errorf("NewContext Workers = %d, want 1", got)
	}
	if _, err := ctx.CreateBuffer(maligo.MemReadWrite, 1024, nil); err != nil {
		t.Errorf("CreateBuffer on a NewContext context: %v", err)
	}
}

const racyKernelSrc = `
__kernel void shift(__global float* out, __local float* tile) {
    int lid = get_local_id(0);
    tile[lid] = (float)lid;
    out[get_global_id(0)] = tile[lid + 1];
}
`

// TestAnalyzePublicAPI exercises the static-analysis surface: Analyze,
// the severity gate, the formatters and the pass registry.
func TestAnalyzePublicAPI(t *testing.T) {
	diags, err := maligo.Analyze("saxpy.cl", saxpySrc, "")
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if maligo.MaxDiagnosticSeverity(diags) >= maligo.SevWarning {
		t.Errorf("saxpy should lint clean at warning level: %s", maligo.FormatDiagnostics(diags))
	}

	diags, err = maligo.Analyze("racy.cl", racyKernelSrc, "")
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if maligo.MaxDiagnosticSeverity(diags) != maligo.SevError {
		t.Fatalf("racy kernel must produce an error diagnostic, got:\n%s", maligo.FormatDiagnostics(diags))
	}
	text := maligo.FormatDiagnostics(diags)
	if !strings.Contains(text, "[race]") || !strings.Contains(text, "racy.cl:") {
		t.Errorf("formatted diagnostics missing pass tag or file: %s", text)
	}
	if raw, err := maligo.FormatDiagnosticsJSON(diags); err != nil || len(raw) == 0 {
		t.Errorf("FormatDiagnosticsJSON: %v", err)
	}
	if len(maligo.AnalysisPasses()) < 6 {
		t.Errorf("pass registry too small: %d", len(maligo.AnalysisPasses()))
	}
}

// TestRaceCheckPublicAPI drives the dynamic confirmation tier through
// the façade on the sharded engine: the queue records attributed
// traces, the detector confirms the static report.
func TestRaceCheckPublicAPI(t *testing.T) {
	p := maligo.NewPlatform(maligo.WithWorkers(4))
	defer p.Close()
	ctx := p.Context

	prog := ctx.CreateProgramWithSource(racyKernelSrc)
	if err := prog.Build(""); err != nil {
		t.Fatalf("build: %v\n%s", err, prog.BuildLog())
	}
	kernel, err := prog.CreateKernel("shift")
	if err != nil {
		t.Fatal(err)
	}
	const n, local = 64, 16
	buf, err := ctx.CreateBuffer(maligo.MemReadWrite|maligo.MemAllocHostPtr, n*4, nil)
	if err != nil {
		t.Fatal(err)
	}
	kernel.SetArgBuffer(0, buf)
	kernel.SetArgLocal(1, (local+1)*4)

	q := ctx.CreateCommandQueue(p.Mali())
	q.SetRaceCheck(true)
	ev, err := q.EnqueueNDRangeKernel(kernel, 1, []int{n}, []int{local})
	if err != nil {
		t.Fatal(err)
	}
	if ev.RaceCheck == nil {
		t.Fatal("race check enabled but event carries no result")
	}
	if len(ev.RaceCheck.Confirmed()) == 0 {
		t.Fatalf("dynamic tier did not confirm the static race:\nstatic: %v\ndynamic: %v",
			ev.RaceCheck.Static, ev.RaceCheck.Dynamic)
	}
}
