package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// tracer brackets a traced phase: a runtime/pprof CPU profile plus the
// process CPU time and Go runtime counters at both ends.
type tracer struct {
	path string
	file *os.File
	cpu0 time.Duration
	rt0  []metrics.Sample
}

// traceTotals are the process-wide figures of one traced phase.
type traceTotals struct {
	cpuS, gcCPUS, gcCycles, allocMB, peakRSSMB float64
}

var runtimeMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
}

func startTrace(path string) (*tracer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	t := &tracer{path: path, file: f, cpu0: processCPU(), rt0: readRuntime()}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return t, nil
}

func (t *tracer) stop() (traceTotals, error) {
	pprof.StopCPUProfile()
	rt1 := readRuntime()
	tot := traceTotals{
		cpuS:      (processCPU() - t.cpu0).Seconds(),
		gcCPUS:    rt1[0].Value.Float64() - t.rt0[0].Value.Float64(),
		gcCycles:  float64(rt1[1].Value.Uint64() - t.rt0[1].Value.Uint64()),
		allocMB:   float64(rt1[2].Value.Uint64()-t.rt0[2].Value.Uint64()) / (1 << 20),
		peakRSSMB: peakRSSMB(),
	}
	if err := t.file.Close(); err != nil {
		return tot, fmt.Errorf("write profile: %w", err)
	}
	return tot, nil
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// traced runs body under a CPU profile and returns the phase's
// process totals and each layer's share of the sampled CPU.
func traced(c runConfig, body func()) (traceTotals, map[string]float64, error) {
	path := filepath.Join(c.outDir, "cpu-"+c.workload+".pprof")
	t, err := startTrace(path)
	if err != nil {
		return traceTotals{}, nil, err
	}
	body()
	tot, err := t.stop()
	if err != nil {
		return tot, nil, err
	}
	shares, err := layerShares(path)
	return tot, shares, err
}

// setLayerShares records the per-layer metrics every workload shares:
// CPU shares, process totals and the tracing overhead (traced wall
// time per operation over untraced).
func setLayerShares(o *outcome, tot traceTotals, shares map[string]float64, overhead float64) {
	module := 100.0
	for _, l := range reportedLayers {
		o.set(l+".cpu_pct", shares[l])
		switch l {
		case layerHTTP, layerClient, layerGC, layerOther:
			module -= shares[l]
		}
	}
	o.set("layers.module_pct", module)
	o.set("cpu.total_s", tot.cpuS)
	o.set("trace.overhead_ratio", overhead)
	o.set("gc.cpu_s", tot.gcCPUS)
	o.set("gc.cycles", tot.gcCycles)
	o.set("gc.alloc_mb", tot.allocMB)
	o.set("gc.peak_rss_mb", tot.peakRSSMB)
}

// layerShares reads a CPU profile with the installed toolchain
// (`go tool pprof -traces`) and returns each layer's share of the
// sampled CPU time, in percent.
func layerShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	byLayer, total := attributeTraces(out)
	if total == 0 {
		return nil, fmt.Errorf("go tool pprof: profile %s holds no samples", profile)
	}
	shares := make(map[string]float64, len(reportedLayers))
	for _, l := range reportedLayers {
		shares[l] = 100 * float64(byLayer[l]) / float64(total)
	}
	return shares, nil
}

// attributeTraces sums the sampled time of each stack in
// `pprof -traces` text output by layer. A stack block starts with a
// separator line; its first line carries the sample time before the
// leaf frame, and each later line one caller frame. A frame inlined
// into its caller carries a trailing "(inline)".
func attributeTraces(text []byte) (map[string]time.Duration, time.Duration) {
	byLayer := map[string]time.Duration{}
	var total, cur time.Duration
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			byLayer[layerOf(stack)] += cur
			total += cur
		}
		stack, cur = nil, 0
	}
	inBlock := false
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			continue
		}
		fields := strings.Fields(line)
		if n := len(fields); n > 0 && fields[n-1] == "(inline)" {
			fields = fields[:n-1]
		}
		if !inBlock || len(fields) == 0 {
			continue
		}
		if len(stack) == 0 && len(fields) >= 2 {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				continue
			}
			cur = d
			stack = append(stack, fields[1])
			continue
		}
		if len(stack) > 0 && len(fields) == 1 {
			stack = append(stack, fields[0])
		}
	}
	flush()
	return byLayer, total
}
