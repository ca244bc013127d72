// Package cl implements the host-side OpenCL-like runtime of the
// simulated platform: contexts over the unified memory of the Exynos
// 5250, buffer objects with USE_HOST_PTR/ALLOC_HOST_PTR semantics,
// map/unmap zero-copy access, explicit read/write copies (with their
// cost, so the paper's §III-A memory-mapping optimization is
// measurable), program compilation via the clc compiler, kernels with
// positional arguments, and in-order command queues that execute
// NDRanges on a device model and record timing reports.
package cl

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"maligo/internal/clc"
	"maligo/internal/clc/analysis"
	"maligo/internal/clc/ir"
	"maligo/internal/clc/types"
	"maligo/internal/device"
	"maligo/internal/mem"
	"maligo/internal/obs"
	"maligo/internal/platform"
	"maligo/internal/sched"
	"maligo/internal/vm"
)

// Sentinel errors in the spirit of OpenCL status codes.
var (
	ErrInvalidArgIndex   = errors.New("CL_INVALID_ARG_INDEX")
	ErrInvalidArgValue   = errors.New("CL_INVALID_ARG_VALUE")
	ErrInvalidKernelArgs = errors.New("CL_INVALID_KERNEL_ARGS")
	ErrInvalidBufferSize = errors.New("CL_INVALID_BUFFER_SIZE")
	ErrBuildFailure      = errors.New("CL_BUILD_PROGRAM_FAILURE")
	ErrKernelNotFound    = errors.New("CL_INVALID_KERNEL_NAME")
	ErrMapFailure        = errors.New("CL_MAP_FAILURE")
	// ErrContextClosed reports an operation (Finish, user-event
	// creation, ...) against a context that was already closed —
	// OpenCL's CL_INVALID_CONTEXT after clReleaseContext.
	ErrContextClosed = errors.New("CL_INVALID_CONTEXT: context closed")
)

// Typed queue-contract errors re-exported from the scheduler so
// callers can errors.Is against the cl package alone.
var (
	ErrEventCycle     = sched.ErrCycle
	ErrDoubleWait     = sched.ErrDoubleWait
	ErrOrphanEvent    = sched.ErrOrphanEvent
	ErrForeignEvent   = sched.ErrForeignEvent
	ErrNotUserEvent   = sched.ErrNotUserEvent
	ErrEventComplete  = sched.ErrAlreadyComplete
	ErrEventDepFailed = sched.ErrDepFailed
)

// MemFlags mirror cl_mem_flags.
type MemFlags uint32

// Buffer creation flags.
const (
	MemReadWrite MemFlags = 1 << iota
	MemReadOnly
	MemWriteOnly
	// MemUseHostPtr wraps host memory; on this unified-memory platform
	// the runtime still keeps a device allocation and the benchmarks
	// must copy explicitly (the trap §III-A describes).
	MemUseHostPtr
	// MemAllocHostPtr allocates host-visible device memory that can be
	// mapped with zero copies — the recommended Mali pattern.
	MemAllocHostPtr
	MemCopyHostPtr
)

// Context owns the unified memory arena shared by every device, plus
// the host worker pool the execution engine shards work-groups onto
// and the metrics registry every queue reports into.
type Context struct {
	arena   *mem.Arena
	devices []device.Device
	workers int
	engine  vm.Engine
	metrics *obs.Registry
	memo    *launchMemo // nil disables launch memoization

	poolMu   sync.Mutex
	pool     *device.Pool
	external bool             // pool is shared (WithPool); Close must not stop its workers
	sched    *sched.Scheduler // lazy; serves every async queue of the context
	closed   bool
	closeCh  chan struct{}  // closed by Close; cancels in-flight async bodies
	inflight sync.WaitGroup // enqueues currently holding the pool

	asyncQueues bool // CreateCommandQueue returns scheduler-backed queues

	queueSeq atomic.Int64

	// atomicsMu serializes read-modify-write cycles on the arena when
	// work-groups execute concurrently (global atomics are the only
	// cross-group write contention the benchmark kernels have).
	atomicsMu sync.Mutex
}

// DefaultArenaBytes is the default simulated memory capacity (the
// board has 2 GB; the simulator reserves less). Override per context
// with WithArenaBytes.
const DefaultArenaBytes = 512 << 20

// ContextOption configures a context at creation.
type ContextOption func(*contextConfig)

type contextConfig struct {
	devices     []device.Device
	arenaBytes  int64
	workers     int
	engine      vm.Engine
	asyncQueues bool
	pool        *device.Pool
}

// WithDevices sets the context's devices.
func WithDevices(devices ...device.Device) ContextOption {
	return func(cfg *contextConfig) { cfg.devices = devices }
}

// WithArenaBytes sets the simulated unified-memory capacity;
// n <= 0 selects DefaultArenaBytes.
func WithArenaBytes(n int64) ContextOption {
	return func(cfg *contextConfig) { cfg.arenaBytes = n }
}

// WithWorkers sets the host worker count for the parallel NDRange
// engine; n <= 0 selects runtime.NumCPU(), n == 1 forces the serial
// engine. Simulated reports are bit-identical at every worker count —
// only host wall-clock changes.
func WithWorkers(n int) ContextOption {
	return func(cfg *contextConfig) { cfg.workers = n }
}

// WithEngine selects the VM execution engine for every enqueue on the
// context: vm.EngineInterp for the reference interpreter,
// vm.EngineCompiled for the closure-compiled fast path. The default
// (vm.EngineAuto) honours the MALIGO_ENGINE environment variable and
// otherwise runs the fast path. Both engines produce bit-identical
// results, reports and traces — only host wall-clock differs.
func WithEngine(e vm.Engine) ContextOption {
	return func(cfg *contextConfig) { cfg.engine = e }
}

// WithPool shares an externally owned worker pool with the context
// instead of letting it lazily create a private one. Multiple contexts
// may share one pool — the malid service multiplexes every tenant's
// work-group fan-out over a single host pool this way. The context
// never closes a shared pool; the owner must outlive every context
// using it. The context's worker count becomes the pool's.
func WithPool(p *device.Pool) ContextOption {
	return func(cfg *contextConfig) { cfg.pool = p }
}

// WithAsyncQueues makes CreateCommandQueue return scheduler-backed
// in-order queues: enqueues flow through the context's DAG scheduler
// and the synchronous Enqueue* methods become enqueue-then-wait.
// Events, timestamps and results stay bit-identical to the legacy
// synchronous queue; what changes is that the Async enqueue variants
// and wait-lists become available without opting in per queue.
func WithAsyncQueues(on bool) ContextOption {
	return func(cfg *contextConfig) { cfg.asyncQueues = on }
}

// NewContextWith creates a context from functional options.
func NewContextWith(opts ...ContextOption) *Context {
	cfg := contextConfig{arenaBytes: DefaultArenaBytes, workers: runtime.NumCPU()}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.arenaBytes <= 0 {
		cfg.arenaBytes = DefaultArenaBytes
	}
	if cfg.workers <= 0 {
		cfg.workers = runtime.NumCPU()
	}
	if cfg.engine == vm.EngineAuto {
		cfg.engine = vm.EngineFromEnv()
	}
	c := &Context{
		arena:       mem.NewArena(cfg.arenaBytes),
		devices:     cfg.devices,
		workers:     cfg.workers,
		engine:      cfg.engine,
		metrics:     obs.NewRegistry(),
		memo:        newLaunchMemo(),
		asyncQueues: cfg.asyncQueues,
		closeCh:     make(chan struct{}),
	}
	c.arena.OnReset(func() {
		if c.memo != nil {
			c.memo.drop(false)
		}
	})
	if cfg.pool != nil {
		c.pool = cfg.pool
		c.external = true
		c.workers = cfg.pool.Workers()
	}
	c.registerGauges()
	return c
}

// registerGauges wires the callback gauges that read live runtime
// state at snapshot time: arena occupancy, engine-pool activity and
// per-device L2 hit rates.
func (c *Context) registerGauges() {
	c.metrics.GaugeFunc("arena.in_use_bytes", func() float64 {
		return float64(c.arena.InUse())
	})
	c.metrics.GaugeFunc("arena.capacity_bytes", func() float64 {
		return float64(c.arena.Capacity())
	})
	c.metrics.GaugeFunc("pool.workers", func() float64 {
		c.poolMu.Lock()
		defer c.poolMu.Unlock()
		if c.pool == nil {
			return 0
		}
		return float64(c.pool.Workers())
	})
	c.metrics.GaugeFunc("pool.jobs_done", func() float64 {
		c.poolMu.Lock()
		defer c.poolMu.Unlock()
		if c.pool == nil {
			return 0
		}
		done, _ := c.pool.Stats()
		return float64(done)
	})
	c.metrics.GaugeFunc("pool.busy_workers", func() float64 {
		c.poolMu.Lock()
		defer c.poolMu.Unlock()
		if c.pool == nil {
			return 0
		}
		_, busy := c.pool.Stats()
		return float64(busy)
	})
	for _, dev := range c.devices {
		l2, ok := dev.(interface{ L2Stats() mem.CacheStats })
		if !ok {
			continue
		}
		name := metricName(dev.Name())
		c.metrics.GaugeFunc("device."+name+".l2_hit_rate", func() float64 {
			st := l2.L2Stats()
			if st.Accesses == 0 {
				return 0
			}
			return 1 - st.MissRate()
		})
	}
}

// metricName sanitizes a device display name into a metric-name
// component: lower-case with runs of non-alphanumerics collapsed to
// single underscores ("Mali-T604" -> "mali_t604").
func metricName(s string) string {
	var b strings.Builder
	lastUnder := true
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
			lastUnder = false
		default:
			if !lastUnder {
				b.WriteByte('_')
				lastUnder = true
			}
		}
	}
	return strings.TrimRight(b.String(), "_")
}

// NewContext creates a context over the given devices with default
// arena capacity and runtime.NumCPU() engine workers.
func NewContext(devices ...device.Device) *Context {
	return NewContextWith(WithDevices(devices...))
}

// Devices returns the context's devices.
func (c *Context) Devices() []device.Device { return c.devices }

// Engine returns the VM execution engine this context enqueues with.
func (c *Context) Engine() vm.Engine { return c.engine }

// Arena exposes the unified memory (used by tests and examples to
// inspect results without going through buffer reads).
func (c *Context) Arena() *mem.Arena { return c.arena }

// ArenaBytes returns the context's unified-memory capacity.
func (c *Context) ArenaBytes() int64 { return c.arena.Capacity() }

// Workers returns the engine worker count the context was created
// with.
func (c *Context) Workers() int { return c.workers }

// Metrics returns the context's metrics registry. Queues feed it on
// every enqueue; callers take point-in-time views with Snapshot.
func (c *Context) Metrics() *obs.Registry { return c.metrics }

// acquirePool lazily creates the shared worker pool and registers the
// caller as an in-flight user, keeping Close from tearing the pool
// down underneath a running enqueue. It returns a nil pool (and a
// no-op release) when the context is serial (workers <= 1) or already
// closed. The release function must be called exactly once when the
// enqueue no longer touches the pool.
func (c *Context) acquirePool() (*device.Pool, func()) {
	c.poolMu.Lock()
	defer c.poolMu.Unlock()
	if c.closed || c.workers <= 1 {
		return nil, func() {}
	}
	if c.pool == nil {
		c.pool = device.NewPool(c.workers)
	}
	c.inflight.Add(1)
	var once sync.Once
	return c.pool, func() { once.Do(c.inflight.Done) }
}

// scheduler lazily creates the context's DAG scheduler — one per
// context, shared by every async queue so cross-queue wait-lists work.
// Command bodies are dispatched onto the device worker pool when the
// context has one. Returns nil once the context is closed.
func (c *Context) scheduler() *sched.Scheduler {
	c.poolMu.Lock()
	defer c.poolMu.Unlock()
	if c.closed {
		return nil
	}
	if c.sched == nil {
		c.sched = sched.New(sched.WithExec(c.execBody))
	}
	return c.sched
}

// execBody runs one async command body, on a pool worker when the
// context is parallel. The body itself may shard work-groups across
// the same pool (see device.Pool.Run for why that nesting is safe).
func (c *Context) execBody(f func()) {
	pool, release := c.acquirePool()
	defer release()
	if pool != nil {
		pool.Run(f)
	} else {
		f()
	}
}

// bodyCtx derives the context an async command body runs under: the
// caller's parent cancellation is honoured, and Context.Close cancels
// it with cause ErrContextClosed — the device layer checks the body
// context between work-groups, so an in-flight NDRange fails with a
// typed error instead of stalling Close and FinishCtx. The returned
// stop function must be called when the body finishes.
func (c *Context) bodyCtx(parent context.Context) (context.Context, func()) {
	ctx, cancel := context.WithCancelCause(parent)
	done := make(chan struct{})
	go func() {
		select {
		case <-c.closeCh:
			cancel(ErrContextClosed)
		case <-done:
			cancel(context.Canceled)
		}
	}()
	return ctx, func() { close(done) }
}

// Close shuts down the context's async scheduler (the running command
// completes, every other pending command fails with a typed error),
// drops its memoized launches and releases the worker pool. It first
// marks the context closed (so no new enqueue can acquire the pool),
// then waits for in-flight enqueues to release it before stopping the
// workers — Close racing an enqueue is deterministic, not a panic.
// Enqueues after Close fall back to the serial engine; Close is
// idempotent.
func (c *Context) Close() {
	c.poolMu.Lock()
	s := c.sched
	c.sched = nil
	first := !c.closed
	c.closed = true // no new scheduler, no new pool acquisitions
	c.poolMu.Unlock()
	if first {
		// Cancel every in-flight async command body: the device layer
		// checks the body context between work-groups, so a long
		// NDRange aborts within one group instead of stalling the
		// scheduler drain below. The job fails with ErrContextClosed.
		close(c.closeCh)
	}
	if s != nil {
		// Before the pool teardown below: the scheduler's running
		// command may still be sharding work-groups across the pool
		// (it acquired the pool before closed was set and holds an
		// inflight reference until it finishes).
		s.Close()
	}
	c.poolMu.Lock()
	pool := c.pool
	c.pool = nil
	c.poolMu.Unlock()
	if pool != nil {
		c.inflight.Wait()
		if !c.external {
			pool.Close()
		}
	}
	if c.memo != nil {
		c.memo.drop(true)
	}
}

// Buffer is a cl_mem buffer object.
type Buffer struct {
	ctx   *Context
	base  int64
	size  int64
	flags MemFlags
	freed bool
}

// CreateBuffer allocates a buffer of size bytes. hostData may be nil;
// with MemCopyHostPtr or MemUseHostPtr it initializes the buffer.
// Mutually exclusive flag combinations are rejected with
// ErrInvalidArgValue, zero and negative sizes with
// ErrInvalidBufferSize — matching clCreateBuffer instead of silently
// accepting contradictory requests.
func (c *Context) CreateBuffer(flags MemFlags, size int64, hostData []byte) (*Buffer, error) {
	if size <= 0 {
		return nil, fmt.Errorf("size %d: %w", size, ErrInvalidBufferSize)
	}
	if err := validateMemFlags(flags); err != nil {
		return nil, err
	}
	if hostData != nil && int64(len(hostData)) > size {
		return nil, fmt.Errorf("host data larger than buffer: %w", ErrInvalidBufferSize)
	}
	base, err := c.arena.Alloc(size, 64)
	if err != nil {
		return nil, err
	}
	c.metrics.Counter("cl.buffers_created").Inc()
	b := &Buffer{ctx: c, base: base, size: size, flags: flags}
	if hostData != nil && flags&(MemCopyHostPtr|MemUseHostPtr) != 0 {
		dst, err := c.arena.Bytes(base, int64(len(hostData)))
		if err != nil {
			return nil, err
		}
		copy(dst, hostData)
	}
	return b, nil
}

// validateMemFlags rejects the mutually exclusive cl_mem_flags
// combinations the OpenCL specification forbids.
func validateMemFlags(flags MemFlags) error {
	rw := flags & (MemReadWrite | MemReadOnly | MemWriteOnly)
	if rw&(rw-1) != 0 {
		return fmt.Errorf("flags %#x combine more than one of READ_WRITE/READ_ONLY/WRITE_ONLY: %w",
			uint32(flags), ErrInvalidArgValue)
	}
	if flags&MemUseHostPtr != 0 && flags&(MemAllocHostPtr|MemCopyHostPtr) != 0 {
		return fmt.Errorf("flags %#x combine USE_HOST_PTR with ALLOC/COPY_HOST_PTR: %w",
			uint32(flags), ErrInvalidArgValue)
	}
	return nil
}

// Size returns the buffer size in bytes.
func (b *Buffer) Size() int64 { return b.size }

// Base returns the buffer's offset in the unified arena.
func (b *Buffer) Base() int64 { return b.base }

// DeviceAddr returns the tagged device address of the buffer start.
func (b *Buffer) DeviceAddr() int64 { return ir.EncodeAddr(ir.SpaceGlobal, b.base) }

// Release frees the buffer.
func (b *Buffer) Release() {
	if !b.freed {
		b.ctx.arena.Free(b.base)
		b.freed = true
	}
}

// Bytes returns the live backing slice [off, off+n) of the buffer —
// what clEnqueueMapBuffer returns on a unified-memory system. It is
// valid until Release. The bounds check is overflow-safe: a negative
// length or an offset large enough to wrap off+n must error, never
// panic or alias another buffer's range.
func (b *Buffer) Bytes(off, n int64) ([]byte, error) {
	if off < 0 || n < 0 || off > b.size || n > b.size-off {
		return nil, fmt.Errorf("map range [%d,+%d) outside buffer of %d bytes: %w", off, n, b.size, ErrMapFailure)
	}
	return b.ctx.arena.Bytes(b.base+off, n)
}

// Program is a compiled OpenCL program.
type Program struct {
	ctx    *Context
	source string
	prog   *ir.Program
	art    *clc.Artifacts
	log    string

	diagsOnce sync.Once
	diags     []analysis.Diagnostic
}

// CreateProgramWithSource mirrors clCreateProgramWithSource.
func (c *Context) CreateProgramWithSource(source string) *Program {
	return &Program{ctx: c, source: source}
}

// CreateProgramFromArtifacts wraps an already-compiled artifact bundle
// in a ready-to-use program — the clCreateProgramWithBinary analogue
// the service layer's compiled-program cache uses to share one compile
// across tenants. No Build call is needed (or allowed to change it).
func (c *Context) CreateProgramFromArtifacts(art *clc.Artifacts) *Program {
	return &Program{ctx: c, source: art.Source, art: art, prog: art.Prog}
}

// CreateProgramFromIR wraps a bare lowered program (e.g. one decoded
// from a persisted binary cache, which carries no analyzer artifacts).
// Diagnostics returns nil for such programs; kernels execute normally.
func (c *Context) CreateProgramFromIR(prog *ir.Program, source string) *Program {
	return &Program{ctx: c, source: source, prog: prog}
}

// Build compiles the program with clBuildProgram-style options
// (e.g. "-DREAL=float -DVEC=4").
func (p *Program) Build(options string) error {
	art, err := clc.CompileArtifacts("program.cl", p.source, options)
	if err != nil {
		p.log = err.Error()
		return fmt.Errorf("%w: %v", ErrBuildFailure, err)
	}
	p.art = art
	p.prog = art.Prog
	return nil
}

// BuildLog returns the compiler diagnostics of the last Build.
func (p *Program) BuildLog() string { return p.log }

// Diagnostics runs the static analyzer over the built program (lazily,
// once) and returns its findings: Mali optimization lints plus barrier
// and race diagnostics. Nil before a successful Build.
func (p *Program) Diagnostics() []analysis.Diagnostic {
	if p.art == nil {
		return nil
	}
	p.diagsOnce.Do(func() { p.diags = analysis.Analyze(p.art) })
	return p.diags
}

// KernelNames lists the kernels the built program defines.
func (p *Program) KernelNames() []string {
	if p.prog == nil {
		return nil
	}
	return p.prog.KernelNames()
}

// Kernel is a kernel object with bound arguments.
type Kernel struct {
	prog *Program
	k    *ir.Kernel
	args []vm.ArgValue
	set  []bool
}

// CreateKernel mirrors clCreateKernel.
func (p *Program) CreateKernel(name string) (*Kernel, error) {
	if p.prog == nil {
		return nil, fmt.Errorf("program not built: %w", ErrBuildFailure)
	}
	k := p.prog.Kernel(name)
	if k == nil {
		return nil, fmt.Errorf("kernel %q: %w", name, ErrKernelNotFound)
	}
	return &Kernel{
		prog: p,
		k:    k,
		args: make([]vm.ArgValue, len(k.Params)),
		set:  make([]bool, len(k.Params)),
	}, nil
}

// IR exposes the lowered kernel (for tools and tests).
func (k *Kernel) IR() *ir.Kernel { return k.k }

// NumArgs returns the kernel's parameter count.
func (k *Kernel) NumArgs() int { return len(k.k.Params) }

func (k *Kernel) checkIndex(i int) error {
	if i < 0 || i >= len(k.k.Params) {
		return fmt.Errorf("arg %d of kernel %s (has %d): %w", i, k.k.Name, len(k.k.Params), ErrInvalidArgIndex)
	}
	return nil
}

// SetArgBuffer binds a buffer to a global/constant pointer parameter.
func (k *Kernel) SetArgBuffer(i int, b *Buffer) error {
	if err := k.checkIndex(i); err != nil {
		return err
	}
	p := k.k.Params[i]
	if p.Class != ir.ParamGlobalPtr {
		return fmt.Errorf("arg %d of %s is %s, not a buffer pointer: %w", i, k.k.Name, p.Type, ErrInvalidArgValue)
	}
	k.args[i] = vm.ArgValue{Bits: b.DeviceAddr()}
	k.set[i] = true
	return nil
}

// SetArgLocal reserves size bytes of __local memory for parameter i
// (clSetKernelArg with a nil pointer).
func (k *Kernel) SetArgLocal(i int, size int) error {
	if err := k.checkIndex(i); err != nil {
		return err
	}
	p := k.k.Params[i]
	if p.Class != ir.ParamLocalPtr {
		return fmt.Errorf("arg %d of %s is %s, not a __local pointer: %w", i, k.k.Name, p.Type, ErrInvalidArgValue)
	}
	if size <= 0 {
		return fmt.Errorf("local size %d: %w", size, ErrInvalidArgValue)
	}
	k.args[i] = vm.ArgValue{LocalSize: size}
	k.set[i] = true
	return nil
}

// SetArgInt binds an integer scalar argument.
func (k *Kernel) SetArgInt(i int, v int64) error {
	if err := k.checkIndex(i); err != nil {
		return err
	}
	p := k.k.Params[i]
	if p.Class != ir.ParamScalarI {
		return fmt.Errorf("arg %d of %s is %s, not an integer scalar: %w", i, k.k.Name, p.Type, ErrInvalidArgValue)
	}
	k.args[i] = vm.ArgValue{Bits: v}
	k.set[i] = true
	return nil
}

// SetArgFloat binds a float/double scalar argument.
func (k *Kernel) SetArgFloat(i int, v float64) error {
	if err := k.checkIndex(i); err != nil {
		return err
	}
	p := k.k.Params[i]
	if p.Class != ir.ParamScalarF {
		return fmt.Errorf("arg %d of %s is %s, not a float scalar: %w", i, k.k.Name, p.Type, ErrInvalidArgValue)
	}
	if p.Type.Base == types.Float {
		v = float64(float32(v))
	}
	k.args[i] = vm.ArgValue{F: v}
	k.set[i] = true
	return nil
}

// Event records the outcome of one enqueued command, including the
// four clGetEventProfilingInfo timestamps. Timestamps are simulated
// seconds on the queue's clock (zero at queue creation and after
// ResetEvents), derived purely from the timing model — they are
// bit-identical whether work-groups executed serially or on the
// worker pool. Host wall-clock cost lives separately in HostSeconds.
type Event struct {
	// Seq is the event's index in the queue history.
	Seq int
	// Kind is "ndrange", "write", "read", "map" or "unmap".
	Kind string
	// Name labels the command (kernel name for ndrange, else Kind).
	Name string
	// Report is the device report for NDRange events (nil otherwise).
	Report *device.Report
	// Seconds is the command duration (copies included).
	Seconds float64
	// Queued/Submitted/Started/Ended mirror the COMMAND_QUEUED,
	// COMMAND_SUBMIT, COMMAND_START and COMMAND_END profiling
	// timestamps. The in-order queue submits immediately, so Submitted
	// equals Queued; Started trails Submitted by the device's dispatch
	// overhead (driver enqueue cost, OpenMP fork) and Ended is
	// Queued + Seconds.
	Queued, Submitted, Started, Ended float64
	// HostSeconds is the host wall-clock time the simulator spent
	// executing the command — a debugging aid, deliberately excluded
	// from profiling info and trace export because it is not
	// deterministic.
	HostSeconds float64
	// Bytes moved for copy commands.
	Bytes int64
	// RaceCheck holds the race-check outcome when the queue has
	// SetRaceCheck(true); nil otherwise.
	RaceCheck *RaceCheckResult

	// se links async events to their scheduler state; nil for events
	// from the legacy synchronous path, which are complete on return.
	// The exported fields above are filled at completion time — read
	// them only after Wait/Complete (the synchronous Enqueue* methods
	// do that for you).
	se *sched.Event
}

// Wait blocks until the event's command completes and returns its
// execution error. Events from synchronous enqueues are already
// complete, so Wait returns nil immediately. If completion requires a
// user event the host signals from this same goroutine, signal first
// or use CommandQueue.FinishCtx, which detects the stall.
func (ev *Event) Wait() error {
	if ev.se == nil {
		return nil
	}
	return ev.se.Wait()
}

// Complete reports whether the event's command has finished (either
// way). Always true for events from synchronous enqueues.
func (ev *Event) Complete() bool {
	return ev.se == nil || ev.se.Complete()
}

// Err returns the command's execution error: nil while pending or on
// success, the body's error (or a wrapped ErrEventDepFailed for
// cascaded failures) otherwise.
func (ev *Event) Err() error {
	if ev.se == nil {
		return nil
	}
	return ev.se.Err()
}

// IsUserEvent reports whether this is a host-signalled user event
// created with Context.CreateUserEvent.
func (ev *Event) IsUserEvent() bool { return ev.se != nil && ev.se.IsUserEvent() }

// SetComplete transitions a user event to complete, releasing every
// command waiting on it. User events complete at simulated time zero,
// so downstream timestamps never depend on when the host signals.
// Returns ErrNotUserEvent for ordinary command events and
// ErrEventComplete on a second signal.
func (ev *Event) SetComplete() error {
	if ev.se == nil {
		return fmt.Errorf("%s: %w", ev.Name, ErrNotUserEvent)
	}
	return ev.se.SetComplete()
}

// SetError fails a user event, cascading ErrEventDepFailed to every
// command waiting on it.
func (ev *Event) SetError(err error) error {
	if ev.se == nil {
		return fmt.Errorf("%s: %w", ev.Name, ErrNotUserEvent)
	}
	return ev.se.SetError(err)
}

// RaceCheckResult cross-checks the two race-analysis tiers for one
// enqueue: the compiler's static race/barrier diagnostics for the
// launched kernel, and the races the VM actually observed in the
// executed work-groups' memory traces.
type RaceCheckResult struct {
	// Static holds the analyzer's race and barrier-divergence
	// diagnostics for the launched kernel (other passes excluded).
	Static []analysis.Diagnostic
	// Dynamic holds the races observed during execution. Empty Dynamic
	// does not prove absence: only the launched input was executed.
	Dynamic []vm.DataRace
}

// Confirmed returns the dynamic races whose source lines appear in a
// static diagnostic — the overlap where both tiers agree.
func (r *RaceCheckResult) Confirmed() []vm.DataRace {
	if r == nil {
		return nil
	}
	lines := make(map[int]bool)
	for _, d := range r.Static {
		if d.Pass == "race" {
			lines[d.Pos.Line] = true
		}
	}
	var out []vm.DataRace
	for _, dr := range r.Dynamic {
		if lines[dr.LineA] || lines[dr.LineB] {
			out = append(out, dr)
		}
	}
	return out
}

// QueueProps mirror cl_command_queue_properties.
type QueueProps uint32

// Queue properties.
const (
	// QueueOutOfOrderExec creates an out-of-order queue: commands have
	// no implicit ordering (QUEUED stamps at simulated time zero) and
	// order only through wait-lists, markers and barriers.
	QueueOutOfOrderExec QueueProps = 1 << iota
)

// CommandQueue is a command queue bound to one device. The default
// queue executes synchronously and in-order, keeping a simulated
// clock (seconds since creation) that orders its events into a
// timeline for profiling and trace export. Queues created with
// CreateCommandQueueWith (or on a WithAsyncQueues context) route
// enqueues through the context's DAG scheduler instead: the Async
// enqueue variants return pending events, wait-lists order commands
// across queues, and the synchronous Enqueue* methods become
// enqueue-then-wait — with timestamps that stay bit-identical to the
// synchronous queue for in-order chains.
type CommandQueue struct {
	ctx          *Context
	dev          device.Device
	id           int
	props        QueueProps
	scheduled    bool // enqueues flow through ctx.scheduler()
	raceCheck    bool
	profileLines bool
	lineProf     *vm.LineProfiler

	// enqMu serializes enqueues and guards the enqueue-side ordering
	// state below. It is held across scheduler Submit calls, so two
	// racing enqueues cannot interleave their dependency wiring.
	enqMu sync.Mutex
	// prev is the in-order predecessor: the event whose END stamps the
	// next command's QUEUED. Nil on out-of-order queues.
	prev *sched.Event
	// outstanding accumulates this queue's scheduled events since the
	// last reset — the implicit wait-list of markers, barriers and
	// Finish.
	outstanding []*sched.Event
	// barrier gates every command enqueued after it (out-of-order
	// queues; in-order queues are gated by prev already).
	barrier *sched.Event

	// mu guards the completion-side state below. The legacy
	// synchronous path is single-goroutine, but async completions land
	// from the scheduler's executor. Lock order: enqMu before mu;
	// never the reverse.
	mu     sync.Mutex
	events []*Event
	clock  float64
	gen    uint64 // bumped by ResetEvents; stale completions don't record
}

// SetRaceCheck switches dynamic race checking on or off for subsequent
// NDRange enqueues. When on, each enqueue records work-item-attributed
// memory traces, runs them through a vm.RaceDetector and attaches a
// RaceCheckResult (static diagnostics + dynamic observations) to the
// event. Tracing costs time and memory, so it is off by default.
func (q *CommandQueue) SetRaceCheck(on bool) { q.raceCheck = on }

// SetLineProfile switches pprof-style hot-line profiling on or off
// for subsequent NDRange enqueues. When on, each enqueue records
// work-item-attributed memory traces and folds every access into a
// per-source-line profile readable with LineProfile. Like the race
// check, tracing costs time and memory, so it is off by default; both
// share one trace when enabled together.
func (q *CommandQueue) SetLineProfile(on bool) {
	q.profileLines = on
	if on && q.lineProf == nil {
		q.lineProf = vm.NewLineProfiler()
	}
}

// LineProfile returns the accumulated hot-line profile, or nil when
// SetLineProfile was never enabled.
func (q *CommandQueue) LineProfile() *vm.LineProfiler { return q.lineProf }

// CreateCommandQueue mirrors clCreateCommandQueue: an in-order queue,
// synchronous unless the context was created WithAsyncQueues.
func (c *Context) CreateCommandQueue(dev device.Device) *CommandQueue {
	q := &CommandQueue{ctx: c, dev: dev, id: int(c.queueSeq.Add(1)) - 1}
	q.scheduled = c.asyncQueues
	return q
}

// CreateCommandQueueWith creates a scheduler-backed queue with the
// given properties — in-order by default, out-of-order with
// QueueOutOfOrderExec. Multiple queues on one context share the
// context scheduler, so wait-lists may cross queues.
func (c *Context) CreateCommandQueueWith(dev device.Device, props QueueProps) *CommandQueue {
	q := c.CreateCommandQueue(dev)
	q.props = props
	q.scheduled = true
	return q
}

// Properties returns the queue's creation properties.
func (q *CommandQueue) Properties() QueueProps { return q.props }

// OutOfOrder reports whether the queue executes out of order.
func (q *CommandQueue) OutOfOrder() bool { return q.props&QueueOutOfOrderExec != 0 }

// Scheduled reports whether enqueues flow through the context's DAG
// scheduler (true for CreateCommandQueueWith queues and every queue
// of a WithAsyncQueues context).
func (q *CommandQueue) Scheduled() bool { return q.scheduled }

// Device returns the queue's device.
func (q *CommandQueue) Device() device.Device { return q.dev }

// Events returns all recorded events in order. On a scheduled queue
// the history holds completed commands only — call Finish first for a
// settled view.
func (q *CommandQueue) Events() []*Event {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.events
}

// ResetEvents clears the recorded history and rewinds the queue clock
// to zero (between measurement regions), so a measured timeline
// always starts at t=0 regardless of warm-up runs. On a scheduled
// queue it first drains outstanding commands (ignoring their errors,
// like the history does). The hot-line profile, if enabled, restarts
// too.
func (q *CommandQueue) ResetEvents() {
	_ = q.drain(context.Background())
	q.enqMu.Lock()
	defer q.enqMu.Unlock()
	q.prev = nil
	q.outstanding = nil
	q.barrier = nil
	q.mu.Lock()
	defer q.mu.Unlock()
	q.events = nil
	q.clock = 0
	q.gen++
	if q.lineProf != nil {
		q.lineProf = vm.NewLineProfiler()
	}
}

// drain waits for every outstanding scheduled command. Command
// execution errors are NOT reported — clFinish succeeds even when
// individual commands failed; failures live on their events. It
// returns an error only when the wait itself cannot finish: ctx
// cancellation, or a queue stalled on an unsignalled user event
// (ErrOrphanEvent instead of a deadlock).
func (q *CommandQueue) drain(ctx context.Context) error {
	q.enqMu.Lock()
	outstanding := append([]*sched.Event(nil), q.outstanding...)
	q.enqMu.Unlock()
	if len(outstanding) == 0 {
		return nil
	}
	sch := q.ctx.scheduler()
	for _, se := range outstanding {
		if sch == nil {
			// Context closed: the scheduler already failed these.
			_ = se.Wait() // failure recorded on the event
			continue
		}
		if err := sch.WaitEvent(ctx, se); err != nil && !se.Complete() {
			return err
		}
	}
	return nil
}

// record stamps the event with the queue's profiling timestamps,
// advances the clock and appends it to the history. dispatch is the
// SUBMIT→START window (clamped into [0, Seconds]).
func (q *CommandQueue) record(ev *Event, dispatch float64) *Event {
	if ev.Name == "" {
		ev.Name = ev.Kind
	}
	if dispatch < 0 {
		dispatch = 0
	}
	if dispatch > ev.Seconds {
		dispatch = ev.Seconds
	}
	q.mu.Lock()
	ev.Seq = len(q.events)
	ev.Queued = q.clock
	ev.Submitted = ev.Queued
	ev.Started = ev.Submitted + dispatch
	ev.Ended = ev.Queued + ev.Seconds
	q.clock = ev.Ended
	q.events = append(q.events, ev)
	q.mu.Unlock()
	q.ctx.metrics.Counter("cl.enqueues." + ev.Kind).Inc()
	return ev
}

// Timeline exports the queue's event history as timeline spans for
// trace writers, one track (lane) per queue. Span times are the
// simulated profiling timestamps, so the export is deterministic.
// Spans start at SUBMIT (equal to QUEUED on in-order queues, so
// legacy traces are unchanged) and are sorted by start time within
// the track — on an out-of-order queue the history is in completion
// order, but trace viewers and tracecheck want monotone lanes.
func (q *CommandQueue) Timeline() []obs.Span {
	q.mu.Lock()
	events := append([]*Event(nil), q.events...)
	q.mu.Unlock()
	track := fmt.Sprintf("queue %d — %s", q.id, q.dev.Name())
	spans := make([]obs.Span, 0, len(events))
	for _, ev := range events {
		sp := obs.Span{
			Name:    ev.Name,
			Cat:     ev.Kind,
			Track:   track,
			TrackID: q.id,
			Start:   ev.Submitted,
			Dur:     ev.Seconds,
		}
		if rep := ev.Report; rep != nil {
			sp.Args = map[string]any{
				"dram_bytes":  rep.DRAMBytes,
				"utilization": rep.Utilization,
			}
			if rep.ArithUtil > 0 || rep.LSUtil > 0 {
				sp.Args["arith_util"] = rep.ArithUtil
				sp.Args["ls_util"] = rep.LSUtil
			}
		} else if ev.Bytes > 0 {
			sp.Args = map[string]any{"bytes": ev.Bytes}
		}
		spans = append(spans, sp)
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	return spans
}

// memTarget adapts the context arena + a program's constant segment to
// the VM's memory interface. Plain loads and stores go straight to the
// arena — concurrent work-groups touch disjoint ranges — while atomics
// serialize on the context mutex so read-modify-write cycles stay
// atomic when groups execute in parallel.
type memTarget struct {
	arena    *mem.Arena
	constant []byte
	mu       *sync.Mutex
}

func (t *memTarget) LoadBits(space int, off int64, size int) (uint64, error) {
	if space == ir.SpaceConstant {
		var v uint64
		if off < 0 || off+int64(size) > int64(len(t.constant)) {
			return 0, fmt.Errorf("constant segment: out-of-bounds load at %d", off)
		}
		for i := size - 1; i >= 0; i-- {
			v = v<<8 | uint64(t.constant[off+int64(i)])
		}
		return v, nil
	}
	return t.arena.LoadBits(off, size)
}

func (t *memTarget) StoreBits(space int, off int64, size int, bits uint64) error {
	if space == ir.SpaceConstant {
		return fmt.Errorf("store to __constant memory at %d", off)
	}
	return t.arena.StoreBits(off, size, bits)
}

func (t *memTarget) AtomicRMW(space int, off int64, size int, op vm.AtomicOp) (uint64, error) {
	if t.mu != nil {
		t.mu.Lock()
		defer t.mu.Unlock()
	}
	old, err := t.LoadBits(space, off, size)
	if err != nil {
		return 0, err
	}
	return old, t.StoreBits(space, off, size, op.Apply(old))
}

// EnqueueNDRangeKernel launches the kernel. local may be nil to let
// the driver pick (the paper's §III-A warns this is often slow on the
// Mali driver). Execution is synchronous in the simulator; the
// returned event carries the timing report.
func (q *CommandQueue) EnqueueNDRangeKernel(k *Kernel, workDim int, global, local []int) (*Event, error) {
	return q.EnqueueNDRangeKernelCtx(context.Background(), k, workDim, global, local)
}

// EnqueueNDRangeKernelCtx is EnqueueNDRangeKernel with cancellation:
// ctx aborts a long simulation between work-groups. Work-groups are
// sharded across the context's worker pool when it has more than one
// worker; the simulated report is bit-identical to serial execution
// either way. On a scheduled queue this is enqueue-then-wait through
// the DAG scheduler — still bit-identical.
func (q *CommandQueue) EnqueueNDRangeKernelCtx(ctx context.Context, k *Kernel, workDim int, global, local []int) (*Event, error) {
	if q.scheduled {
		return q.syncViaAsync(func() (*Event, error) {
			return q.ndrangeAsync(ctx, k, workDim, global, local, nil)
		})
	}
	ndr, err := prepareNDRange(k, workDim, global, local)
	if err != nil {
		return nil, err
	}
	ev := &Event{Kind: "ndrange", Name: k.k.Name}
	if err := q.runNDRangeBody(ctx, k, ndr, ev, q.raceCheck, q.profileLines, q.lineProf); err != nil {
		return nil, err
	}
	return q.record(ev, ev.Report.DispatchSeconds), nil
}

// prepareNDRange validates the kernel's bound arguments and builds the
// NDRange — the synchronous part of an NDRange enqueue, shared by the
// immediate and scheduled paths so both reject bad launches at enqueue
// time with the same errors.
func prepareNDRange(k *Kernel, workDim int, global, local []int) (*device.NDRange, error) {
	for i, ok := range k.set {
		if !ok {
			return nil, fmt.Errorf("arg %d of kernel %s not set: %w", i, k.k.Name, ErrInvalidKernelArgs)
		}
	}
	ndr := &device.NDRange{Kernel: k.k, WorkDim: workDim, Args: k.args}
	for d := 0; d < workDim && d < 3; d++ {
		if d < len(global) {
			ndr.Global[d] = global[d]
		}
		if local != nil && d < len(local) {
			ndr.Local[d] = local[d]
		}
	}
	return ndr, nil
}

// runNDRangeBody executes the prepared NDRange and fills ev with the
// report, duration and race-check results. It does not stamp or record
// the event — the immediate path calls record, the scheduled path lets
// the DAG scheduler derive the stamps. The race/profiling flags are
// passed in (captured at enqueue time) so an async body never races
// with the host toggling the queue's settings.
func (q *CommandQueue) runNDRangeBody(ctx context.Context, k *Kernel, ndr *device.NDRange, ev *Event, raceCheck, profileLines bool, lineProf *vm.LineProfiler) error {
	target := &memTarget{arena: q.ctx.arena, constant: k.prog.prog.ConstantData, mu: &q.ctx.atomicsMu}
	pool, release := q.ctx.acquirePool()
	defer release()
	rc := device.RunConfig{Ctx: ctx, Pool: pool, Engine: q.ctx.engine}
	var detector *vm.RaceDetector
	var observers []device.RaceObserver
	if raceCheck {
		detector = &vm.RaceDetector{Kernel: k.k.Name, Max: 32}
		observers = append(observers, detector)
	}
	if profileLines {
		observers = append(observers, lineProf)
	}
	rc.Race = device.FanObservers(observers...)
	var rep *device.Report
	var err error
	hostStart := time.Now() // maligo:allow walltime HostSeconds is documented host-side profiling, never simulated state
	if cr, ok := q.dev.(device.ContextRunner); ok {
		rep, err = q.runMemoized(cr, rc, k, ndr, target)
	} else {
		// Legacy devices without RunWith cannot trace; the race check
		// degrades to the static tier only.
		rep, err = q.dev.Run(ndr, target)
	}
	if err != nil {
		return err
	}
	ev.Report = rep
	ev.Seconds = rep.Seconds
	ev.HostSeconds = time.Since(hostStart).Seconds()
	if raceCheck {
		res := &RaceCheckResult{}
		for _, d := range k.prog.Diagnostics() {
			if d.Kernel == k.k.Name && (d.Pass == "race" || d.Pass == "barrierdiv") {
				res.Static = append(res.Static, d)
			}
		}
		if detector != nil {
			res.Dynamic = detector.Races()
		}
		ev.RaceCheck = res
	}
	m := q.ctx.metrics
	m.Counter("cl.work_items").Add(uint64(ndr.TotalWorkItems()))
	m.Counter("cl.dram_bytes").Add(rep.DRAMBytes)
	m.Histogram("cl.ndrange_seconds", nil).Observe(rep.Seconds)
	return nil
}

// hostCopyBandwidth is the achievable memcpy bandwidth of one A15 core
// (bytes/s) — the cost the paper's memory-mapping optimization avoids.
const hostCopyBandwidth = 2.6e9

// EnqueueWriteBuffer copies host data into a buffer, charging the copy
// to the host CPU like clEnqueueWriteBuffer does.
func (q *CommandQueue) EnqueueWriteBuffer(b *Buffer, off int64, data []byte) (*Event, error) {
	if q.scheduled {
		return q.syncViaAsync(func() (*Event, error) {
			return q.EnqueueWriteBufferAsync(b, off, data, nil)
		})
	}
	dst, err := b.Bytes(off, int64(len(data)))
	if err != nil {
		return nil, err
	}
	copy(dst, data)
	ev := &Event{Kind: "write", Seconds: float64(len(data)) / hostCopyBandwidth, Bytes: int64(len(data))}
	q.ctx.metrics.Counter("cl.copy_bytes").Add(uint64(len(data)))
	q.ctx.metrics.Histogram("cl.copy_seconds", nil).Observe(ev.Seconds)
	return q.record(ev, 0), nil
}

// EnqueueReadBuffer copies buffer contents back to host memory.
func (q *CommandQueue) EnqueueReadBuffer(b *Buffer, off int64, data []byte) (*Event, error) {
	if q.scheduled {
		return q.syncViaAsync(func() (*Event, error) {
			return q.EnqueueReadBufferAsync(b, off, data, nil)
		})
	}
	src, err := b.Bytes(off, int64(len(data)))
	if err != nil {
		return nil, err
	}
	copy(data, src)
	ev := &Event{Kind: "read", Seconds: float64(len(data)) / hostCopyBandwidth, Bytes: int64(len(data))}
	q.ctx.metrics.Counter("cl.copy_bytes").Add(uint64(len(data)))
	q.ctx.metrics.Histogram("cl.copy_seconds", nil).Observe(ev.Seconds)
	return q.record(ev, 0), nil
}

// EnqueueMapBuffer returns a zero-copy view of the buffer — free on
// this unified-memory platform apart from a fixed driver cost.
func (q *CommandQueue) EnqueueMapBuffer(b *Buffer, off, n int64) ([]byte, *Event, error) {
	if q.scheduled {
		var view []byte
		ev, err := q.syncViaAsync(func() (*Event, error) {
			var e *Event
			var err error
			view, e, err = q.EnqueueMapBufferAsync(b, off, n, nil)
			return e, err
		})
		return view, ev, err
	}
	view, err := b.Bytes(off, n)
	if err != nil {
		return nil, nil, err
	}
	ev := &Event{Kind: "map", Seconds: 4e-6}
	return view, q.record(ev, 0), nil
}

// EnqueueUnmapMemObject releases a mapping (fixed driver cost).
func (q *CommandQueue) EnqueueUnmapMemObject(b *Buffer) *Event {
	if q.scheduled {
		ev, _ := q.syncViaAsync(func() (*Event, error) {
			return q.enqueueAsync(&Event{Kind: "unmap", Seconds: 4e-6}, nil, nil)
		})
		return ev
	}
	return q.record(&Event{Kind: "unmap", Seconds: 4e-6}, 0)
}

// Finish drains the queue, blocking until every enqueued command has
// completed. Like clFinish it succeeds even when individual commands
// failed (failures live on their events); it returns ErrContextClosed
// when the owning context was closed — it used to succeed vacuously,
// hiding exactly the misuse it now reports — and ErrOrphanEvent when
// the queue can never drain because a user event was never signalled.
func (q *CommandQueue) Finish() error {
	return q.FinishCtx(context.Background())
}

// FinishCtx is Finish with cancellation: ctx aborts the wait (the
// commands keep executing; only the wait stops).
func (q *CommandQueue) FinishCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := q.drain(ctx); err != nil {
		return err
	}
	q.ctx.poolMu.Lock()
	closed := q.ctx.closed
	q.ctx.poolMu.Unlock()
	if closed {
		return ErrContextClosed
	}
	return ctx.Err()
}

// Flush mirrors clFlush. Scheduled commands are submitted to the
// context scheduler eagerly at enqueue time, so there is nothing to
// push; it reports ErrContextClosed on a closed context like Finish.
func (q *CommandQueue) Flush() error {
	q.ctx.poolMu.Lock()
	closed := q.ctx.closed
	q.ctx.poolMu.Unlock()
	if closed {
		return ErrContextClosed
	}
	return nil
}

// TotalSeconds sums the duration of all recorded events.
func (q *CommandQueue) TotalSeconds() float64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	var t float64
	for _, ev := range q.events {
		t += ev.Seconds
	}
	return t
}

// GPUEnqueueOverhead re-exports the per-enqueue host overhead so the
// harness can account host-spin power during GPU runs.
const GPUEnqueueOverhead = platform.GPUEnqueueOverheadSec
