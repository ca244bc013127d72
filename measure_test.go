package maligo_test

import (
	"testing"

	"maligo"
)

// TestMeasureMatchesHarness requires Platform.Measure to price a
// measured region exactly like the figure harness: every version of
// red is run by the harness's protocol on a fresh platform, and each
// Measure activity must equal the harness cell's. red's OpenCL Opt
// version launches two kernels, so a rule that kept only the last
// kernel's utilization instead of the busy-time-weighted mean
// disagrees there.
func TestMeasureMatchesHarness(t *testing.T) {
	const scale = 0.08
	cfg := maligo.DefaultExperimentConfig()
	cfg.Scale = scale
	cfg.Benchmarks = []string{"red"}
	cfg.Precisions = []maligo.Precision{maligo.F32}
	res, err := maligo.RunExperiments(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if k := res.Cell("red", maligo.F32, maligo.OpenCLOpt).Kernels; len(k) != 2 {
		t.Fatalf("red OpenCL Opt launched %v, want two kernels", k)
	}

	p := maligo.NewPlatform()
	defer p.Close()
	b := maligo.BenchmarkByName("red")
	prog := p.Context.CreateProgramWithSource(b.Source())
	if err := prog.Build(maligo.F32.BuildOptions()); err != nil {
		t.Fatal(err)
	}
	if err := b.Setup(p.Context, maligo.F32, scale); err != nil {
		t.Fatal(err)
	}
	devs := map[maligo.Version]maligo.Device{
		maligo.Serial: p.CPU(), maligo.OpenMP: p.CPUDual(),
		maligo.OpenCL: p.Mali(), maligo.OpenCLOpt: p.Mali(),
	}
	for _, v := range maligo.BenchmarkVersions() {
		q := p.Context.CreateCommandQueue(devs[v])
		if _, err := b.Run(q, prog, v); err != nil {
			t.Fatalf("%s warm-up: %v", v, err)
		}
		q.ResetEvents()
		if _, err := b.Run(q, prog, v); err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		_, act := p.Measure(q)
		if want := res.Cell("red", maligo.F32, v).Activity; act != want {
			t.Errorf("%s: Measure activity\n%+v\nharness cell\n%+v", v, act, want)
		}
	}
}
