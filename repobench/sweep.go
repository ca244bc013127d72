package main

import (
	_ "embed"
	"fmt"
	"runtime"
	"strings"

	"maligo"
)

// The sweep workload is the paper reproduction: the full figure sweep
// (`figures -scale 0.25`), nine benchmarks × F32/F64 × four versions
// on the default engine with workers = nproc and verification on. The
// VM, trace recording and the timing model do almost all its work; the
// front end and the request path do none.
const sweepScale = 0.25

// sweepGolden is `figures -scale 0.25 -csv`. Simulated results do not
// depend on the host, the engine or the worker count, so every sweep
// must reproduce it byte for byte.
//
//go:embed testdata/sweep_scale0.25.csv
var sweepGolden string

// A sweep's set-up is what the harness does for each benchmark and
// precision before its first cell: a fresh context, the program build
// and the benchmark's inputs. setup_s is the median over
// sweepSetupReps samples of one set-up each (about 0.1 s).
const sweepSetupReps = 7

// sweepConfig is the paper's sweep. It takes no seed: the harness
// meters every benchmark from one power-meter noise stream, so the
// figures depend on the benchmark order, and the golden pins the
// paper's order.
func sweepConfig() maligo.ExperimentConfig {
	cfg := maligo.DefaultExperimentConfig()
	cfg.Scale = sweepScale
	return cfg
}

// sweepPhase accumulates the sweeps of one measured phase.
type sweepPhase struct {
	walls   []float64            // wall seconds per sweep
	cellMS  []float64            // host milliseconds per supported cell
	p50     []float64            // per sweep: median cell host milliseconds
	tail    []float64            // per sweep: tail cell host milliseconds
	benchMS map[string][]float64 // cellMS by benchmark
	hostS   float64              // Σ Cell.HostSeconds
	items   float64              // simulated work-items
	dram    float64              // simulated DRAM bytes of one sweep
	l2      float64              // mean GPU L2 hit rate of one sweep
	counted bool                 // dram and l2 hold the first sweep's counts
}

// runPhase runs whole sweeps until seconds have passed (at least one).
// Each sweep is a block of one fixed set of configurations, so the run
// reports the median over sweeps of each sweep's median and tail cell.
func runPhase(cfg maligo.ExperimentConfig, seconds, tailPct float64, o *outcome) *sweepPhase {
	p := &sweepPhase{benchMS: map[string][]float64{}}
	start := now()
	for len(p.walls) == 0 || since(start).Seconds() < seconds {
		p.sweepOnce(cfg, tailPct, o)
	}
	return p
}

// sweepOnce runs one sweep and checks it. Its operations are its
// cells; a sweep that errors or whose CSV differs from the golden
// fails every cell.
func (p *sweepPhase) sweepOnce(cfg maligo.ExperimentConfig, tailPct float64, o *outcome) {
	t0 := now()
	res, err := maligo.RunExperiments(cfg)
	wall := since(t0).Seconds()
	p.walls = append(p.walls, wall)
	if err != nil {
		o.attempted++
		o.fail("sweep: %v", err)
		return
	}
	cells := res.CellsSorted()
	o.attempted += len(cells)
	if got := res.CSV(); got != sweepGolden {
		o.failed += len(cells) - 1
		o.fail("sweep: CSV differs from the golden at %s", firstDiff(got, sweepGolden))
		return
	}
	var items, dram, l2 float64
	var l2n int
	var sweepMS []float64
	for _, c := range cells {
		if c.VerifyError != nil {
			o.fail("sweep: %s/%s/%s: %v", c.Bench, c.Precision, c.Version, c.VerifyError)
			continue
		}
		if !c.Supported {
			continue
		}
		sweepMS = append(sweepMS, c.HostSeconds*1000)
		p.benchMS[c.Bench] = append(p.benchMS[c.Bench], c.HostSeconds*1000)
		p.hostS += c.HostSeconds
		// Counters accumulate over the versions of one benchmark
		// context, and CellsSorted puts OpenCL Opt last: its snapshot
		// (or, when unsupported, the one before) holds the totals.
		if last := lastSupported(res, c); last {
			items += float64(c.Metrics.Counters["cl.work_items"])
			dram += float64(c.Metrics.Counters["cl.dram_bytes"])
			for k, v := range c.Metrics.Gauges {
				if strings.HasPrefix(k, "device.mali") && strings.HasSuffix(k, ".l2_hit_rate") {
					l2 += v
					l2n++
				}
			}
		}
	}
	p.cellMS = append(p.cellMS, sweepMS...)
	sorted := sortedCopy(sweepMS)
	p.p50 = append(p.p50, quantile(sorted, 0.5))
	p.tail = append(p.tail, quantile(sorted, tailPct/100))
	p.items += items
	if l2n > 0 {
		l2 /= float64(l2n)
	}
	if !p.counted {
		p.dram, p.l2, p.counted = dram, l2, true
	} else if dram != p.dram || l2 != p.l2 {
		o.fail("sweep: simulated counts moved between sweeps (dram %v vs %v, l2 %v vs %v)", dram, p.dram, l2, p.l2)
	}
}

// lastSupported reports whether c is the last supported cell of its
// benchmark and precision.
func lastSupported(res *maligo.Results, c *maligo.Cell) bool {
	vs := maligo.BenchmarkVersions()
	for i := len(vs) - 1; i >= 0; i-- {
		if x := res.Cell(c.Bench, c.Precision, vs[i]); x != nil && x.Supported {
			return x == c
		}
	}
	return false
}

func runSweep(c runConfig, o *outcome) error {
	setups, err := timeSetups(sweepSetupReps, 1, sweepSetUp)
	if err != nil {
		return err
	}
	cfg := sweepConfig()
	if !c.trace {
		p := runPhase(cfg, c.seconds, c.tailPct, o)
		o.set("setup_s", median(setups))
		o.set("ops_per_s", float64(len(p.cellMS))/float64(len(p.walls))/median(p.walls))
		o.set("p50_ms", median(p.p50))
		o.set("tail_ms", median(p.tail))
		o.sample("setup_s", setups)
		o.sample("sweep_s", p.walls)
		o.sample("cell_ms", p.cellMS)
		o.sample("sweep_p50_ms", p.p50)
		o.sample("sweep_tail_ms", p.tail)
		return nil
	}

	plain := runPhase(cfg, c.seconds/2, c.tailPct, o)
	var p *sweepPhase
	tot, shares, err := traced(c, func() { p = runPhase(cfg, c.seconds/2, c.tailPct, o) })
	if err != nil {
		return err
	}
	setLayerShares(o, tot, shares, median(p.walls)/median(plain.walls))
	wall := 0.0
	for _, w := range p.walls {
		wall += w
	}
	o.set("vm.work_items", p.items)
	o.set("timing.dram_bytes", p.dram)
	o.set("timing.l2_hit_rate", p.l2)
	for _, name := range []string{"progcache.hit_ratio", "progcache.entries", "opt.optimized_ratio", "job.batched_ratio", "http.bytes_per_req"} {
		o.set(name, 0) // no daemon in this workload
	}
	// The harness's own share of a cell: sweep time outside the
	// cells' measured runs (warm-ups, verification, set-up).
	o.set("service.overhead_ms", (wall-p.hostS)/float64(len(p.cellMS))*1000)
	o.set("harness.measured_s", p.hostS)
	o.set("harness.other_s", wall-p.hostS)
	for _, b := range maligo.BenchmarkNames() {
		o.set("kernel."+b+".p50_ms", median(p.benchMS[b]))
		sum := 0.0
		for _, v := range p.benchMS[b] {
			sum += v / 1000
		}
		o.set("bench."+b+".host_s", sum)
	}
	o.sample("sweep_s", p.walls)
	o.sample("untraced_sweep_s", plain.walls)
	return nil
}

// sweepSetUp does the per-benchmark set-up of one sweep (see
// RunExperiments) for the nine benchmarks in both precisions. The
// contexts close untimed.
func sweepSetUp() (func(), error) {
	var ctxs []*maligo.Context
	undo := func() {
		for _, ctx := range ctxs {
			ctx.Close()
		}
	}
	for _, name := range maligo.BenchmarkNames() {
		for _, prec := range []maligo.Precision{maligo.F32, maligo.F64} {
			b := maligo.BenchmarkByName(name)
			ctx := maligo.NewContext()
			ctxs = append(ctxs, ctx)
			if err := ctx.CreateProgramWithSource(b.Source()).Build(prec.BuildOptions()); err != nil {
				undo()
				return nil, fmt.Errorf("build %s (%s): %w", name, prec, err)
			}
			if err := b.Setup(ctx, prec, sweepScale); err != nil {
				undo()
				return nil, fmt.Errorf("set up %s (%s): %w", name, prec, err)
			}
		}
	}
	return undo, nil
}

// timeSetups returns reps samples of set-up time in seconds, each the
// mean of batch consecutive set-ups, so a sample is well above timer
// and scheduler noise. Each sample starts from a collected heap, so no
// collection left over from earlier work runs inside it. Each set-up's
// undo runs untimed after its sample.
func timeSetups(reps, batch int, setUp func() (undo func(), err error)) ([]float64, error) {
	var times []float64
	for i := 0; i < reps; i++ {
		var undos []func()
		runtime.GC()
		t0 := now()
		for j := 0; j < batch; j++ {
			undo, err := setUp()
			if err != nil {
				for _, u := range undos {
					u()
				}
				return nil, err
			}
			undos = append(undos, undo)
		}
		times = append(times, since(t0).Seconds()/float64(batch))
		for _, u := range undos {
			u()
		}
	}
	return times, nil
}

// firstDiff names the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("line %d: got %d lines, want %d", min(len(g), len(w))+1, len(g), len(w))
}
