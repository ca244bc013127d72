// Command repobench is the repository benchmark. It runs one workload
// against the public maligo API for a fixed time and prints, as the
// last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (tracing off);
// with -trace 1 a separate traced run reports the per-layer ones. The
// line before it is a report with the run's metadata and the median
// and quartiles of every sample set the metrics come from. Any failed
// correctness gate makes the command exit 1. See README.md for the
// workloads and metrics; run.sh builds and runs it:
//
//	bash repobench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"maligo"
)

// runConfig is what every workload receives from the command line.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string  // profiles land here
	tailPct  float64 // the percentile tail_ms reports
}

// workload runs one named workload and fills an outcome.
type workload struct {
	tailPct float64 // the percentile tail_ms reports
	run     func(runConfig, *outcome) error
}

var workloads = map[string]workload{
	"sweep":      {tailPct: 75, run: runSweep},
	"serve-cold": {tailPct: 95, run: runServe},
}

type metricDef struct{ name, unit string }

// endToEnd lists the metrics a -trace 0 run reports on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
}

// perLayer lists the metrics a -trace 1 run reports on every workload.
func perLayer() []metricDef {
	var defs []metricDef
	for _, l := range reportedLayers {
		defs = append(defs, metricDef{l + ".cpu_pct", "%"})
	}
	defs = append(defs, []metricDef{
		{"layers.module_pct", "%"},
		{"cpu.total_s", "s"},
		{"trace.overhead_ratio", "ratio"},
		{"gc.cpu_s", "s"},
		{"gc.cycles", "count"},
		{"gc.alloc_mb", "MB"},
		{"gc.peak_rss_mb", "MB"},
		{"vm.work_items", "count"},
		{"timing.dram_bytes", "bytes"},
		{"timing.l2_hit_rate", "ratio"},
		{"progcache.hit_ratio", "ratio"},
		{"progcache.entries", "count"},
		{"opt.optimized_ratio", "ratio"},
		{"job.batched_ratio", "ratio"},
		{"http.bytes_per_req", "bytes"},
		{"service.overhead_ms", "ms"},
		{"harness.measured_s", "s"},
		{"harness.other_s", "s"},
	}...)
	for _, b := range maligo.BenchmarkNames() {
		defs = append(defs, metricDef{"kernel." + b + ".p50_ms", "ms"}, metricDef{"bench." + b + ".host_s", "s"})
	}
	return defs
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome collects one run's operations, metrics and sample sets.
type outcome struct {
	defs      []metricDef
	attempted int
	failed    int
	metrics   map[string]metric
	samples   map[string]dist
}

func newOutcome(defs []metricDef) *outcome {
	return &outcome{defs: defs, metrics: map[string]metric{}, samples: map[string]dist{}}
}

// set records a metric; the name must be one of the run's metrics.
func (o *outcome) set(name string, v float64) {
	for _, d := range o.defs {
		if d.name == name {
			o.metrics[name] = metric{Value: finite(v), Unit: d.unit}
			return
		}
	}
	panic("repobench: metric " + name + " is not reported by this run")
}

// sample records the distribution of one sample set for the report.
func (o *outcome) sample(name string, values []float64) { o.samples[name] = distOf(values) }

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "repobench: FAIL "+format+"\n", args...)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: sweep or serve-cold")
		seed    = flag.Int64("seed", 1, "seed of the workload's inputs")
		seconds = flag.Float64("seconds", 20, "measured time per run")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		outDir  = flag.String("out", ".bench_build", "directory for CPU profiles")
		commit  = flag.String("commit", "unknown", "commit of the code under test, for the report")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "repobench: want -workload %s, -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	cfg := runConfig{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir, tailPct: w.tailPct}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer()
	}
	o := newOutcome(defs)
	if err := w.run(cfg, o); err != nil {
		fmt.Fprintln(os.Stderr, "repobench:", err)
		os.Exit(1)
	}
	for _, d := range defs {
		if _, ok := o.metrics[d.name]; !ok {
			fmt.Fprintf(os.Stderr, "repobench: metric %s was not measured\n", d.name)
			os.Exit(1)
		}
	}

	meta := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      *trace,
		"tail_pct":   w.tailPct,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"engine":     engineName(),
		"commit":     *commit,
	}
	report, _ := json.Marshal(map[string]any{"report": map[string]any{"meta": meta, "samples": o.samples}})
	result, _ := json.Marshal(map[string]any{
		"correct":   o.failed == 0,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   o.metrics,
	})
	printHuman(o)
	fmt.Println(string(report))
	fmt.Println(string(result))
	if o.failed > 0 {
		os.Exit(1)
	}
}

// printHuman writes every metric by name with its unit to stderr.
func printHuman(o *outcome) {
	for _, d := range o.defs {
		fmt.Fprintf(os.Stderr, "%-28s %14.6g %s\n", d.name, o.metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(os.Stderr, "%-28s %14d of %d\n", "failed", o.failed, o.attempted)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// engineName reports the VM engine the workloads run on: "default"
// unless MALIGO_ENGINE selects another.
func engineName() string {
	if e := maligo.EngineFromEnv(); e != maligo.EngineAuto {
		return e.String()
	}
	return "default"
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// now reads the host clock; the benchmark measures host time.
func now() time.Time {
	return time.Now() // maligo:allow walltime the benchmark measures host wall-clock
}

func since(t time.Time) time.Duration { return now().Sub(t) }
