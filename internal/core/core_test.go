package core_test

import (
	"encoding/binary"
	"math"
	"testing"

	"maligo/internal/cl"
	"maligo/internal/core"
)

func TestPlatformAssembly(t *testing.T) {
	p := core.NewPlatform()
	devs := p.Devices()
	if len(devs) != 3 {
		t.Fatalf("devices = %d", len(devs))
	}
	names := map[string]bool{}
	for _, d := range devs {
		names[d.Name()] = true
	}
	for _, want := range []string{"Cortex-A15 (1 core)", "Cortex-A15 (2 cores)", "Mali-T604"} {
		if !names[want] {
			t.Errorf("missing device %q", want)
		}
	}
}

func TestEndToEndMeasure(t *testing.T) {
	p := core.NewPlatform()
	prog := p.Context.CreateProgramWithSource(`
__kernel void twice(__global float* x, const uint n) {
    size_t i = get_global_id(0);
    if (i < n) {
        x[i] = x[i] * 2.0f;
    }
}`)
	if err := prog.Build(""); err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("twice")
	if err != nil {
		t.Fatal(err)
	}
	const n = 4096
	buf, err := p.Context.CreateBuffer(cl.MemReadWrite|cl.MemAllocHostPtr, n*4, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := buf.Bytes(0, n*4)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(raw[i*4:], math.Float32bits(1))
	}
	if err := k.SetArgBuffer(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgInt(1, n); err != nil {
		t.Fatal(err)
	}

	// Same kernel on the GPU and on one CPU core: both must compute
	// the same result; the measurements must be internally consistent.
	for _, tc := range []struct {
		dev string
		gpu bool
	}{{"gpu", true}, {"cpu", false}} {
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(raw[i*4:], math.Float32bits(1))
		}
		var q *cl.CommandQueue
		if tc.gpu {
			q = p.Context.CreateCommandQueue(p.GPU)
		} else {
			q = p.Context.CreateCommandQueue(p.CPU1)
		}
		if _, err := q.EnqueueNDRangeKernel(k, 1, []int{n}, []int{64}); err != nil {
			t.Fatalf("%s: %v", tc.dev, err)
		}
		m, act := p.Measure(q)
		if m.MeanPowerW <= 2 || m.EnergyJ <= 0 {
			t.Errorf("%s: measurement %+v implausible", tc.dev, m)
		}
		if act.Seconds <= 0 {
			t.Errorf("%s: empty activity", tc.dev)
		}
		if tc.gpu && act.GPUBusyCoreSeconds <= 0 {
			t.Errorf("gpu run with no GPU activity")
		}
		if !tc.gpu && act.CPUBusyCoreSeconds <= 0 {
			t.Errorf("cpu run with no CPU activity")
		}
		for i := 0; i < n; i++ {
			got := math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:]))
			if got != 2 {
				t.Fatalf("%s: x[%d] = %v", tc.dev, i, got)
			}
		}
	}
}

// TestOutOfOrderRegionCountedOnce checks that commands overlapping on
// an out-of-order queue are priced for the time they cover, not for
// the sum of their durations: the region's seconds and the host spin
// are the makespan, while busy core-seconds stay sums.
func TestOutOfOrderRegionCountedOnce(t *testing.T) {
	p := core.NewPlatform()
	defer p.Close()
	prog := p.Context.CreateProgramWithSource(`
__kernel void twice(__global float* x) {
    size_t i = get_global_id(0);
    x[i] = x[i] * 2.0f;
}`)
	if err := prog.Build(""); err != nil {
		t.Fatal(err)
	}
	const size = 1 << 20
	q := p.Context.CreateCommandQueueWith(p.GPU, cl.QueueOutOfOrderExec)
	var bufs [2]*cl.Buffer
	for i := range bufs {
		b, err := p.Context.CreateBuffer(cl.MemReadWrite, size, nil)
		if err != nil {
			t.Fatal(err)
		}
		bufs[i] = b
	}
	var evs []*cl.Event
	for _, b := range bufs {
		ev, err := q.EnqueueWriteBufferAsync(b, 0, make([]byte, size), nil)
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	// makespan is the latest end; both commands start at time zero.
	makespan := func(evs []*cl.Event) (end, sum float64) {
		for _, ev := range evs {
			if ev.Submitted != 0 {
				t.Fatalf("%s submitted at %g, want 0 (overlap)", ev.Name, ev.Submitted)
			}
			end = max(end, ev.Ended)
			sum += ev.Seconds
		}
		return end, sum
	}
	end, sum := makespan(evs)
	_, act := p.Measure(q)
	if act.Seconds != end || q.TotalSeconds() != end {
		t.Errorf("writes: Seconds %g, TotalSeconds %g, want the makespan %g (sum %g)", act.Seconds, q.TotalSeconds(), end, sum)
	}
	if act.CPUBusyCoreSeconds != sum {
		t.Errorf("writes: CPUBusyCoreSeconds %g, want the sum %g", act.CPUBusyCoreSeconds, sum)
	}

	q.ResetEvents()
	evs = evs[:0]
	var busy float64
	for _, b := range bufs {
		k, err := prog.CreateKernel("twice")
		if err != nil {
			t.Fatal(err)
		}
		if err := k.SetArgBuffer(0, b); err != nil {
			t.Fatal(err)
		}
		ev, err := q.EnqueueNDRangeKernelAsync(k, 1, []int{size / 4}, []int{64}, nil)
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		busy += ev.Report.BusyCoreSeconds
	}
	end, sum = makespan(evs)
	_, act = p.Measure(q)
	if act.Seconds != end || act.HostSpinSeconds != end {
		t.Errorf("kernels: Seconds %g, HostSpinSeconds %g, want the makespan %g (sum %g)", act.Seconds, act.HostSpinSeconds, end, sum)
	}
	if act.GPUBusyCoreSeconds != busy {
		t.Errorf("kernels: GPUBusyCoreSeconds %g, want the sum %g", act.GPUBusyCoreSeconds, busy)
	}
}
