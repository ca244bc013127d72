// Command figures regenerates the paper's evaluation figures (Figure 2
// speedup, Figure 3 power, Figure 4 energy-to-solution, in single and
// double precision) plus the §V-D summary, on a simulated board from
// the device fleet (the paper's Exynos 5250 by default; -device picks
// another registered model).
//
// Usage:
//
//	figures [-fig 2a|2b|3a|3b|4a|4b] [-summary] [-scale 1.0] [-bench name,...]
//	        [-device name] [-workers N] [-v]
//	figures -ablations [-scale 1.0]
//	figures -fleet [-bench name,...] [-device name,...] [-scale 1.0]
//
// With no flags it renders everything; -ablations instead runs the
// §III-A/§III-B isolation experiments and the §V auto-optimization
// leg (naive versions through the transform pipeline against the
// hand-optimized ones); -fleet runs the cross-device autotuner over
// the selected benchmarks and renders one placement table per kernel
// (with -device as a comma-separated fleet subset). The simulation shards
// work-groups across all host CPUs by default (-workers 1 forces the
// serial engine; the rendered figures are identical either way), and
// runs kernels on the closure-compiled VM fast path (MALIGO_ENGINE=interp
// selects the reference interpreter — slower but bit-identical; an
// invalid value is rejected at startup).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"maligo"
)

func main() {
	var (
		fig     = flag.String("fig", "", "render a single figure: 2a, 2b, 3a, 3b, 4a or 4b")
		summary = flag.Bool("summary", false, "render only the §V-D summary")
		ablate  = flag.Bool("ablations", false, "run the §III-A/§III-B ablation experiments instead of the figures")
		fleet   = flag.Bool("fleet", false, "run the cross-device autotuner fleet leg instead of the figures (one search per benchmark)")
		csv     = flag.Bool("csv", false, "emit all figure data as CSV instead of rendered tables")
		scale   = flag.Float64("scale", 1.0, "workload scale factor (1.0 = paper-equivalent sizes)")
		benches = flag.String("bench", "", "comma-separated benchmark subset (default: all nine)")
		workers = flag.Int("workers", 0, "engine worker goroutines (0 = all host CPUs, 1 = serial engine)")
		verify  = flag.Bool("verify", true, "verify kernel results against host references")
		devName = flag.String("device", "", "board model: "+strings.Join(maligo.DeviceNames(), ", ")+" (default "+maligo.DefaultDeviceName+")")
		verbose = flag.Bool("v", false, "also print raw per-configuration measurements")
	)
	flag.Parse()
	if _, err := maligo.EngineFromEnvStrict(); err != nil {
		fmt.Fprintln(os.Stderr, "MALIGO_ENGINE:", err)
		os.Exit(2)
	}

	if *fleet {
		names := maligo.BenchmarkNames()
		if *benches != "" {
			names = strings.Split(*benches, ",")
		}
		first := true
		for _, name := range names {
			rep, err := maligo.Autotune(maligo.TuneSpace{
				Bench:   name,
				Scale:   *scale,
				Devices: splitDevices(*devName),
				Workers: *workers,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
			if !first {
				fmt.Println()
			}
			first = false
			fmt.Print(rep.Render())
		}
		return
	}

	if *ablate {
		hm, err := maligo.RunHostMemAblation(1 << 20)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		lo, err := maligo.RunLayoutAblation(1 << 20)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Print(maligo.RenderAblations(hm, lo))
		ao, err := maligo.RunAutoOptAblation(*scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Println()
		fmt.Print(ao.Render())
		return
	}

	soc, err := maligo.LookupDevice(*devName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cfg := maligo.DefaultExperimentConfig()
	cfg.Scale = *scale
	cfg.Verify = *verify
	cfg.Workers = *workers
	cfg.SoC = soc
	if *benches != "" {
		cfg.Benchmarks = strings.Split(*benches, ",")
	}
	if *fig != "" {
		valid := false
		for _, f := range maligo.Figures() {
			if string(f) == *fig {
				valid = true
			}
		}
		if !valid {
			fmt.Fprintf(os.Stderr, "unknown figure %q (want 2a, 2b, 3a, 3b, 4a or 4b)\n", *fig)
			os.Exit(2)
		}
		prec := maligo.F32
		if strings.HasSuffix(*fig, "b") {
			prec = maligo.F64
		}
		cfg.Precisions = []maligo.Precision{prec}
	}

	fmt.Fprintln(os.Stderr, "simulating… (every kernel runs instruction-by-instruction; paper scale takes ~2-3 minutes)")
	res, err := maligo.RunExperiments(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	switch {
	case *csv:
		fmt.Print(res.CSV())
	case *fig != "":
		found := false
		for _, f := range maligo.Figures() {
			if string(f) == *fig {
				fmt.Print(res.FigureTable(f).Render())
				found = true
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "unknown figure %q (want 2a, 2b, 3a, 3b, 4a or 4b)\n", *fig)
			os.Exit(2)
		}
	case *summary:
		fmt.Print(res.Summarize().Render())
	default:
		fmt.Print(res.RenderAll())
	}

	if *verbose {
		fmt.Println("\nRaw measurements")
		fmt.Println("================")
		for _, c := range res.CellsSorted() {
			if !c.Supported {
				fmt.Printf("%-30s n/a (%s)\n", cellLabel(c), c.Reason)
				continue
			}
			fmt.Printf("%-30s t=%9.3fms  host=%7.1fms  P=%5.2f±%.3fW  E=%8.4fJ  kernels=%v\n",
				cellLabel(c), c.Seconds*1000, c.HostSeconds*1000, c.Power.MeanPowerW, c.Power.StdPowerW,
				c.Power.EnergyJ, c.Kernels)
		}
	}
}

func cellLabel(c *maligo.Cell) string {
	return fmt.Sprintf("%s/%s/%s", c.Bench, c.Precision, c.Version)
}

// splitDevices splits the -device flag into the autotuner's device
// list (empty = the whole fleet).
func splitDevices(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
