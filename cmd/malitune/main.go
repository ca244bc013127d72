// Command malitune runs the cross-device autotuner: it enumerates
// placements of one benchmark kernel across the registered device
// fleet — target unit (serial CPU, OpenMP cluster, Mali GPU), DVFS
// operating point, GPU work-group size and §V transform pass set —
// simulates every candidate, and prints the deterministic search
// report with the energy-optimal and time-optimal placements marked.
//
// Usage:
//
//	malitune -bench dmmm [-prec single] [-scale 0.25]
//	         [-device exynos5250,exynos5422] [-target cpu,cpu2,gpu]
//	         [-local 0,32,64] [-passes "none;all"] [-no-dvfs]
//	         [-workers N] [-json]
//
// Dimension flags take comma-separated lists; -passes takes
// semicolon-separated pass sets where "none" runs the kernel as
// written, "all" the full transform pipeline, and a comma-joined list
// ("vector,unroll") a subset. The report is byte-identical across
// runs, -workers settings and VM engines (MALIGO_ENGINE=interp runs
// every candidate on the reference interpreter; an invalid value is
// rejected at startup).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"maligo"
)

// splitList splits a comma-separated flag, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func main() {
	var (
		name    = flag.String("bench", "", "benchmark: "+strings.Join(maligo.BenchmarkNames(), ", "))
		prec    = flag.String("prec", "single", "precision: single or double")
		scale   = flag.Float64("scale", 0, "workload scale factor (default 0.25)")
		devices = flag.String("device", "", "comma-separated board models (default the whole fleet: "+strings.Join(maligo.DeviceNames(), ", ")+")")
		targets = flag.String("target", "", "comma-separated targets: cpu, cpu2, gpu (default all)")
		locals  = flag.String("local", "", "comma-separated GPU work-group-size hints (0 = device heuristic)")
		passes  = flag.String("passes", "", `semicolon-separated transform pass sets: "none", "all" or a comma-joined pass list (default "none;all")`)
		noDVFS  = flag.Bool("no-dvfs", false, "pin every unit at its nominal operating point")
		workers = flag.Int("workers", 0, "engine worker goroutines (0 = all host CPUs); the report is identical at every setting")
		asJSON  = flag.Bool("json", false, "emit the report as JSON instead of the text table")
		list    = flag.Bool("list", false, "list benchmarks and devices, then exit")
	)
	flag.Parse()
	if _, err := maligo.EngineFromEnvStrict(); err != nil {
		fmt.Fprintln(os.Stderr, "malitune: MALIGO_ENGINE:", err)
		os.Exit(2)
	}

	if *list {
		fmt.Println("benchmarks:")
		for _, b := range maligo.Benchmarks() {
			fmt.Printf("  %-7s %s\n", b.Name(), b.Description())
		}
		fmt.Println("devices:")
		for _, s := range maligo.Devices() {
			fmt.Printf("  %-15s %s\n", s.Name, s.Description)
		}
		return
	}
	if *name == "" {
		fmt.Fprintln(os.Stderr, "malitune: -bench is required; -list shows the choices")
		os.Exit(2)
	}

	p := maligo.F32
	if strings.HasPrefix(*prec, "d") {
		p = maligo.F64
	}

	space := maligo.TuneSpace{
		Bench:     *name,
		Precision: p,
		Scale:     *scale,
		Devices:   splitList(*devices),
		Targets:   splitList(*targets),
		NoDVFS:    *noDVFS,
		Workers:   *workers,
	}
	for _, l := range splitList(*locals) {
		n, err := strconv.Atoi(l)
		if err != nil {
			fmt.Fprintf(os.Stderr, "malitune: bad -local entry %q\n", l)
			os.Exit(2)
		}
		space.LocalSizes = append(space.LocalSizes, n)
	}
	if *passes != "" {
		for _, set := range strings.Split(*passes, ";") {
			set = strings.TrimSpace(set)
			if set == "none" {
				set = ""
			}
			space.PassSets = append(space.PassSets, set)
		}
	}

	rep, err := maligo.Autotune(space)
	if err != nil {
		fmt.Fprintln(os.Stderr, "malitune:", err)
		os.Exit(1)
	}
	if *asJSON {
		data, err := rep.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "malitune:", err)
			os.Exit(1)
		}
		os.Stdout.Write(append(data, '\n'))
		return
	}
	fmt.Print(rep.Render())
}
