// Command malisim runs one benchmark in one configuration on a
// simulated board from the device fleet (the paper's Exynos 5250 by
// default) and prints a detailed execution report: runtime, device
// activity, memory traffic, power and energy.
//
// Usage:
//
//	malisim -bench dmmm [-version opt] [-prec single] [-scale 1.0] [-workers N]
//	        [-device exynos5422]
//	        [-trace out.json] [-metrics] [-metrics-out m.json] [-hotlines N]
//
// -device selects a registered device model (malisim -list names
// them); an unknown name is rejected at startup with the fleet listed.
//
// Versions: serial, omp, cl, opt (paper names: Serial, OpenMP, OpenCL,
// OpenCL Opt). -workers shards the simulation's work-groups across N
// host CPUs (default all); the simulated results are identical, only
// the host wall-clock changes. The MALIGO_ENGINE environment variable
// selects the VM execution engine (the closure-compiled fast path by
// default, the reference interpreter with MALIGO_ENGINE=interp); an
// invalid value is rejected at startup. Both engines are bit-identical
// in every simulated observable.
//
// Observability: -trace writes the measured region's command timeline
// as Chrome tracing JSON (open in chrome://tracing or
// https://ui.perfetto.dev); -metrics dumps the runtime metrics
// snapshot as text and -metrics-out writes it as JSON; -hotlines N
// prints the top-N kernel source lines by bytes moved.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"maligo"
)

func main() {
	var (
		name    = flag.String("bench", "", "benchmark: "+strings.Join(maligo.BenchmarkNames(), ", "))
		version = flag.String("version", "opt", "version: serial, omp, cl, opt")
		prec    = flag.String("prec", "single", "precision: single or double")
		scale   = flag.Float64("scale", 1.0, "workload scale factor")
		workers = flag.Int("workers", 0, "engine worker goroutines (0 = all host CPUs, 1 = serial engine)")
		devName = flag.String("device", "", "board model: "+strings.Join(maligo.DeviceNames(), ", ")+" (default "+maligo.DefaultDeviceName+")")
		list    = flag.Bool("list", false, "list benchmarks and device models and exit")
		lint    = flag.Bool("lint", false, "run the kernel static analyzer over the benchmark's source (all benchmarks when -bench is empty) and exit")

		traceOut   = flag.String("trace", "", "write the measured region's timeline as Chrome tracing JSON to this file")
		metrics    = flag.Bool("metrics", false, "print the runtime metrics snapshot")
		metricsOut = flag.String("metrics-out", "", "write the runtime metrics snapshot as JSON to this file")
		hotlines   = flag.Int("hotlines", 0, "profile and print the top-N kernel source lines by bytes moved")
	)
	flag.Parse()
	eng, err := maligo.EngineFromEnvStrict()
	if err != nil {
		fmt.Fprintln(os.Stderr, "MALIGO_ENGINE:", err)
		os.Exit(2)
	}

	if *list {
		for _, b := range maligo.Benchmarks() {
			fmt.Printf("%-7s %s\n", b.Name(), b.Description())
		}
		fmt.Println()
		for _, s := range maligo.Devices() {
			fmt.Printf("%-15s %s\n", s.Name, s.Description)
		}
		return
	}
	p := maligo.F32
	if strings.HasPrefix(*prec, "d") {
		p = maligo.F64
	}
	if *lint {
		os.Exit(runLint(*name, p))
	}
	if maligo.BenchmarkByName(*name) == nil {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q; -list shows the choices\n", *name)
		os.Exit(2)
	}
	var v maligo.Version
	switch strings.ToLower(*version) {
	case "serial":
		v = maligo.Serial
	case "omp", "openmp":
		v = maligo.OpenMP
	case "cl", "opencl":
		v = maligo.OpenCL
	case "opt", "openclopt", "opencl-opt":
		v = maligo.OpenCLOpt
	default:
		fmt.Fprintf(os.Stderr, "unknown version %q (serial, omp, cl, opt)\n", *version)
		os.Exit(2)
	}

	soc, err := maligo.LookupDevice(*devName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cfg := maligo.DefaultExperimentConfig()
	cfg.Scale = *scale
	cfg.Benchmarks = []string{*name}
	cfg.Precisions = []maligo.Precision{p}
	cfg.Workers = *workers
	cfg.ProfileLines = *hotlines > 0
	cfg.SoC = soc
	res, err := maligo.RunExperiments(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	c := res.Cell(*name, p, v)
	if c == nil {
		fmt.Fprintln(os.Stderr, "no result cell produced")
		os.Exit(1)
	}
	engineWorkers := *workers
	if engineWorkers <= 0 {
		engineWorkers = runtime.NumCPU()
	}
	engineName := eng.String()
	if eng == maligo.EngineAuto {
		engineName = "compiled" // the auto default
	}
	fmt.Printf("benchmark      %s (%s)\n", *name, maligo.BenchmarkByName(*name).Description())
	fmt.Printf("configuration  %s, %s precision, scale %g\n", v, p, *scale)
	fmt.Printf("device         %s\n", soc.Description)
	if !c.Supported {
		fmt.Printf("status         n/a — %s\n", c.Reason)
		return
	}
	fmt.Printf("kernels        %s\n", strings.Join(c.Kernels, " → "))
	if c.FellBack {
		fmt.Println("status         CL_OUT_OF_RESOURCES on the fully optimized kernel; fallback measured")
	}
	fmt.Printf("time           %.4f ms simulated\n", c.Seconds*1000)
	fmt.Printf("host time      %.1f ms wall-clock (%d engine workers, %s engine)\n",
		c.HostSeconds*1000, engineWorkers, engineName)
	fmt.Printf("power          %.3f W (σ %.4f over %d meter repetitions)\n",
		c.Power.MeanPowerW, c.Power.StdPowerW, 20)
	fmt.Printf("energy         %.5f J (σ %.6f)\n", c.Power.EnergyJ, c.Power.StdEnergyJ)
	fmt.Printf("DRAM traffic   %.2f MB (%.2f GB/s)\n",
		float64(c.Activity.DRAMBytes)/1e6, float64(c.Activity.DRAMBytes)/c.Seconds/1e9)
	if v.IsGPU() {
		fmt.Printf("GPU busy       %.4f core-seconds, utilization %.0f%%\n",
			c.Activity.GPUBusyCoreSeconds, c.Activity.GPUUtil*100)
	} else {
		fmt.Printf("CPU busy       %.4f core-seconds, utilization %.0f%%\n",
			c.Activity.CPUBusyCoreSeconds, c.Activity.CPUUtil*100)
	}
	if base := res.Cell(*name, p, maligo.Serial); base != nil && v != maligo.Serial {
		fmt.Printf("vs Serial      %.2fx speed, %.0f%% power, %.0f%% energy\n",
			res.Speedup(*name, p, v), res.NormPower(*name, p, v)*100, res.NormEnergy(*name, p, v)*100)
	}

	if *traceOut != "" {
		if err := writeTrace(*traceOut, c.Timeline); err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
		fmt.Printf("trace          %s (%d spans; open in chrome://tracing or ui.perfetto.dev)\n",
			*traceOut, len(c.Timeline))
	}
	if *hotlines > 0 {
		top := c.HotLines
		if len(top) > *hotlines {
			top = top[:*hotlines]
		}
		fmt.Printf("\nhot lines (top %d by bytes moved)\n", len(top))
		fmt.Print(maligo.FormatHotLines(top, maligo.BenchmarkByName(*name).Source()))
	}
	if *metrics {
		fmt.Println("\nmetrics")
		if err := c.Metrics.WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "metrics:", err)
			os.Exit(1)
		}
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, c.Metrics); err != nil {
			fmt.Fprintln(os.Stderr, "metrics:", err)
			os.Exit(1)
		}
	}
}

// writeTrace writes the cell's timeline as Chrome tracing JSON.
func writeTrace(path string, spans []maligo.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := maligo.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeMetrics writes the cell's metrics snapshot as JSON.
func writeMetrics(path string, snap maligo.MetricsSnapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snap.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runLint analyzes the named benchmark's kernel source (or every
// benchmark when name is empty) at the chosen precision and prints the
// findings. Returns 1 when any error-severity diagnostic fires.
func runLint(name string, p maligo.Precision) int {
	benches := maligo.Benchmarks()
	if name != "" {
		b := maligo.BenchmarkByName(name)
		if b == nil {
			fmt.Fprintf(os.Stderr, "unknown benchmark %q; -list shows the choices\n", name)
			return 2
		}
		benches = []maligo.Benchmark{b}
	}
	code := 0
	for _, b := range benches {
		diags, err := maligo.Analyze(b.Name()+".cl", b.Source(), p.BuildOptions())
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", b.Name(), err)
			return 1
		}
		fmt.Print(maligo.FormatDiagnostics(diags))
		if len(diags) > 0 && maligo.MaxDiagnosticSeverity(diags) >= maligo.SevError {
			code = 1
		}
	}
	return code
}
