package job

import (
	"fmt"
	"runtime"
	"sync"

	"maligo/internal/cl"
	"maligo/internal/clc"
	"maligo/internal/clc/ir"
	"maligo/internal/core"
	"maligo/internal/cpu"
	"maligo/internal/device"
	"maligo/internal/mali"
	"maligo/internal/platform"
	"maligo/internal/power"
)

// Config sizes a Runtime.
type Config struct {
	// ArenaBytes is the unified-memory capacity of every pooled
	// context (default 512 MiB).
	ArenaBytes int64
	// Workers is the host worker count of the shared NDRange engine
	// pool; 0 selects runtime.NumCPU(), 1 disables host parallelism.
	// Results are bit-identical at every setting.
	Workers int
	// MaxIdle bounds the pooled-context free list (default 4).
	MaxIdle int
	// SoC selects the board model jobs run on (nil = the default
	// Exynos 5250); malid configures it once at startup with
	// -device, so one daemon serves one board model.
	SoC *platform.SoC
}

// Runtime executes job Specs deterministically: every job runs on
// fresh device models (cold caches, like the harness gives each
// benchmark) over a pooled context whose arena is reset between jobs
// (identical buffer addresses), with every context multiplexed over
// one shared host worker pool. The combination makes a job's Result a
// pure function of its Spec — the same document yields byte-identical
// JSON no matter which context served it, how many jobs ran before
// it, or how many tenants run concurrently.
type Runtime struct {
	cfg  Config
	pool *device.Pool // shared host pool; nil when Workers == 1

	mu     sync.Mutex
	idle   []*cl.Context
	closed bool
}

// NewRuntime creates a runtime and its shared worker pool.
func NewRuntime(cfg Config) *Runtime {
	if cfg.Workers == 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.SoC == nil {
		cfg.SoC = platform.Default()
	}
	if cfg.MaxIdle == 0 {
		cfg.MaxIdle = 4
	}
	r := &Runtime{cfg: cfg}
	if cfg.Workers > 1 {
		r.pool = device.NewPool(cfg.Workers)
	}
	return r
}

// Close drains the context pool and stops the shared workers.
func (r *Runtime) Close() {
	r.mu.Lock()
	idle := r.idle
	r.idle, r.closed = nil, true
	r.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
	if r.pool != nil {
		r.pool.Close()
	}
}

// checkout hands out a context with an empty arena — pooled when one
// is free, freshly built otherwise.
func (r *Runtime) checkout() *cl.Context {
	r.mu.Lock()
	if n := len(r.idle); n > 0 {
		c := r.idle[n-1]
		r.idle = r.idle[:n-1]
		r.mu.Unlock()
		return c
	}
	r.mu.Unlock()
	opts := []cl.ContextOption{
		cl.WithArenaBytes(r.cfg.ArenaBytes),
	}
	if r.pool != nil {
		opts = append(opts, cl.WithPool(r.pool))
	} else {
		opts = append(opts, cl.WithWorkers(1))
	}
	return cl.NewContextWith(opts...)
}

// checkin returns a context to the pool. The arena must reset cleanly
// (every buffer freed) for the context to be reusable — a job that
// leaked allocations gets its context retired instead, preserving the
// determinism contract for the next job.
func (r *Runtime) checkin(c *cl.Context) {
	if !c.Arena().Reset() {
		c.Close()
		return
	}
	r.mu.Lock()
	if !r.closed && len(r.idle) < r.cfg.MaxIdle {
		r.idle = append(r.idle, c)
		c = nil
	}
	r.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// Compile compiles a spec's program standalone (the slow path the
// service's binary cache exists to skip).
func Compile(source, options string) (*clc.Artifacts, error) {
	return clc.CompileArtifacts("program.cl", source, options)
}

// Run validates, compiles and executes one job.
func (r *Runtime) Run(spec *Spec) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Source == "" {
		return nil, invalid("program_id given without source and no cache to resolve it")
	}
	art, err := Compile(spec.Source, spec.Options)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", cl.ErrBuildFailure, err)
	}
	return r.RunCompiled(spec, art.Prog)
}

// RunCompiled executes one job against an already-compiled program
// (shared across tenants via the content-addressed cache; ir.Kernel
// memoizes its closure-compiled form behind an atomic, so concurrent
// use is safe).
func (r *Runtime) RunCompiled(spec *Spec, prog *ir.Program) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c := r.checkout()
	defer r.checkin(c)

	// Fresh device models per job: cold caches, like the harness gives
	// each benchmark, so reports never depend on what ran before.
	var dev device.Device
	switch spec.Device {
	case DeviceCPU:
		dev = cpu.NewOn(r.cfg.SoC, 1)
	case DeviceCPUDual:
		dev = cpu.NewOn(r.cfg.SoC, r.cfg.SoC.CPU.Cores)
	case DeviceGPU:
		dev = mali.NewOn(r.cfg.SoC)
	}

	p := c.CreateProgramFromIR(prog, spec.Source)
	k, err := p.CreateKernel(spec.Kernel)
	if err != nil {
		return nil, err
	}
	if len(spec.Args) != k.NumArgs() {
		return nil, invalid("kernel %s takes %d args, got %d", spec.Kernel, k.NumArgs(), len(spec.Args))
	}

	bufs := make([]*cl.Buffer, len(spec.Args))
	defer func() {
		for _, b := range bufs {
			if b != nil {
				b.Release()
			}
		}
	}()
	for i, a := range spec.Args {
		switch a.Kind {
		case ArgBuffer:
			size := a.Size
			if size == 0 {
				size = int64(len(a.Data))
			}
			b, err := c.CreateBuffer(cl.MemReadWrite, size, nil)
			if err != nil {
				return nil, err
			}
			bufs[i] = b
			if len(a.Data) > 0 {
				raw, err := b.Bytes(0, int64(len(a.Data)))
				if err != nil {
					return nil, err
				}
				copy(raw, a.Data)
			}
			if err := k.SetArgBuffer(i, b); err != nil {
				return nil, err
			}
		case ArgLocal:
			if err := k.SetArgLocal(i, int(a.Size)); err != nil {
				return nil, err
			}
		case ArgInt:
			if err := k.SetArgInt(i, a.Int); err != nil {
				return nil, err
			}
		case ArgFloat:
			if err := k.SetArgFloat(i, a.Float); err != nil {
				return nil, err
			}
		}
	}

	q := c.CreateCommandQueue(dev)
	if _, err := q.EnqueueNDRangeKernel(k, len(spec.Global), spec.Global, spec.Local); err != nil {
		return nil, err
	}
	if err := q.Finish(); err != nil {
		return nil, err
	}

	res := &Result{
		ProgramID: ProgramID(spec.Source, spec.Options),
		Kernel:    spec.Kernel,
		Device:    spec.Device,
	}
	if spec.ProgramID != "" && spec.Source == "" {
		res.ProgramID = spec.ProgramID
	}
	act := core.RegionActivity(q)
	res.Seconds = act.Seconds
	for _, ev := range q.Events() {
		res.Events = append(res.Events, EventStamp{
			Kind: ev.Kind, Name: ev.Name,
			Queued: ev.Queued, Submitted: ev.Submitted,
			Started: ev.Started, Ended: ev.Ended, Seconds: ev.Seconds,
		})
	}
	seed := spec.MeterSeed
	if seed == 0 {
		seed = 20140519
	}
	hz := spec.MeterHz
	if hz == 0 {
		hz = 10
	}
	m := power.NewMeterFor(r.cfg.SoC, seed, hz).Measure(act)
	res.Power = Power{
		MeanPowerW: m.MeanPowerW, StdPowerW: m.StdPowerW,
		EnergyJ: m.EnergyJ, StdEnergyJ: m.StdEnergyJ, Samples: m.Samples,
	}
	for i, a := range spec.Args {
		if a.Kind != ArgBuffer || !a.Read {
			continue
		}
		raw, err := bufs[i].Bytes(0, bufs[i].Size())
		if err != nil {
			return nil, err
		}
		out := make([]byte, len(raw))
		copy(out, raw)
		res.Buffers = append(res.Buffers, BufferOut{Arg: i, Data: out})
	}
	return res, nil
}
