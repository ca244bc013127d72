package maligo

import (
	"io"

	"maligo/internal/cl"
	"maligo/internal/device"
	"maligo/internal/job"
	"maligo/internal/obs"
	"maligo/internal/power"
	"maligo/internal/service"
	"maligo/internal/vm"
)

// The OpenCL-style runtime surface, re-exported as type aliases so the
// full method set of each handle is public without delegation
// wrappers. A Platform's Context field hands out all of these.
type (
	// Context owns the unified memory arena and the engine worker
	// pool; it creates buffers, programs and queues.
	Context = cl.Context
	// Buffer is a cl_mem buffer object over unified memory.
	Buffer = cl.Buffer
	// Program is a compiled OpenCL C program.
	Program = cl.Program
	// Kernel is a kernel object with bound arguments.
	Kernel = cl.Kernel
	// Queue is a command queue bound to one device — in-order by
	// default, out-of-order with QueueOutOfOrderExec.
	Queue = cl.CommandQueue
	// QueueProps mirror cl_command_queue_properties.
	QueueProps = cl.QueueProps
	// Event records the outcome of one enqueued command.
	Event = cl.Event
	// MemFlags mirror cl_mem_flags.
	MemFlags = cl.MemFlags
	// DeviceInfo mirrors clGetDeviceInfo.
	DeviceInfo = cl.DeviceInfo
	// KernelWorkGroupInfo mirrors clGetKernelWorkGroupInfo.
	KernelWorkGroupInfo = cl.KernelWorkGroupInfo
	// ProfilingInfo mirrors clGetEventProfilingInfo.
	ProfilingInfo = cl.ProfilingInfo

	// Device is the execution-device abstraction (CPU cluster views
	// and the Mali GPU implement it).
	Device = device.Device
	// Report is the timing/activity outcome of one enqueue.
	Report = device.Report

	// Measurement is the outcome of a metered experiment on the
	// simulated Yokogawa WT230.
	Measurement = power.Measurement
	// Activity summarizes what the SoC did during a measured region.
	Activity = power.Activity
	// Meter is the simulated power meter.
	Meter = power.Meter

	// The observability surface: metrics the runtime accumulates on
	// every enqueue, queue timelines for trace export, and the
	// pprof-style hot-line profile.

	// MetricsRegistry is a context's live metric registry
	// (Context.Metrics hands one out).
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a frozen, serializable view of a registry.
	MetricsSnapshot = obs.Snapshot
	// Span is one command on a queue timeline, the unit of trace
	// export (Queue.Timeline produces them).
	Span = obs.Span
	// LineStat is one source line's share of the memory traffic in a
	// hot-line profile.
	LineStat = vm.LineStat
	// LineProfiler accumulates hot-line profiles across enqueues
	// (Queue.LineProfile hands one out after Queue.SetLineProfile).
	LineProfiler = vm.LineProfiler

	// Engine selects the VM execution engine: EngineInterp is the
	// reference switch-dispatch interpreter (the oracle), EngineCompiled
	// the closure-compiled fast path and the default. Both are
	// bit-identical in every observable (results, reports, traces,
	// profiles); only host wall-clock differs.
	Engine = vm.Engine
)

// Buffer creation flags.
const (
	MemReadWrite      = cl.MemReadWrite
	MemReadOnly       = cl.MemReadOnly
	MemWriteOnly      = cl.MemWriteOnly
	MemUseHostPtr     = cl.MemUseHostPtr
	MemAllocHostPtr   = cl.MemAllocHostPtr
	MemCopyHostPtr    = cl.MemCopyHostPtr
	DefaultArenaBytes = cl.DefaultArenaBytes
)

// Queue properties for CreateCommandQueueWith.
const (
	// QueueOutOfOrderExec creates an out-of-order queue: commands only
	// order through their event wait-lists (and barriers), like
	// CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE.
	QueueOutOfOrderExec = cl.QueueOutOfOrderExec
)

// Typed errors of the asynchronous queue contract.
var (
	// ErrContextClosed reports an enqueue or Finish on a closed context.
	ErrContextClosed = cl.ErrContextClosed
	// ErrDoubleWait reports a duplicated wait-list entry.
	ErrDoubleWait = cl.ErrDoubleWait
	// ErrOrphanEvent reports a wait that can never finish because an
	// incomplete user event gates it.
	ErrOrphanEvent = cl.ErrOrphanEvent
	// ErrForeignEvent reports a wait-list event from another context.
	ErrForeignEvent = cl.ErrForeignEvent
	// ErrNotUserEvent reports SetComplete/SetError on a non-user event.
	ErrNotUserEvent = cl.ErrNotUserEvent
	// ErrEventComplete reports a second SetComplete/SetError.
	ErrEventComplete = cl.ErrEventComplete
	// ErrEventDepFailed marks events failed because a dependency failed.
	ErrEventDepFailed = cl.ErrEventDepFailed
)

// Typed errors of the OpenCL-style runtime surface, in the spirit of
// the CL status codes. Re-exported so callers errors.Is against the
// root package instead of importing internals.
var (
	// ErrInvalidArgIndex reports SetArg* beyond the parameter count.
	ErrInvalidArgIndex = cl.ErrInvalidArgIndex
	// ErrInvalidArgValue reports a type-mismatched argument binding or
	// contradictory buffer flags.
	ErrInvalidArgValue = cl.ErrInvalidArgValue
	// ErrInvalidKernelArgs reports an enqueue with unbound arguments.
	ErrInvalidKernelArgs = cl.ErrInvalidKernelArgs
	// ErrInvalidBufferSize reports CreateBuffer with size <= 0.
	ErrInvalidBufferSize = cl.ErrInvalidBufferSize
	// ErrBuildFailure wraps compiler diagnostics from Program.Build.
	ErrBuildFailure = cl.ErrBuildFailure
	// ErrKernelNotFound reports CreateKernel with an unknown name.
	ErrKernelNotFound = cl.ErrKernelNotFound
	// ErrMapFailure reports a Map/Bytes range outside the buffer.
	ErrMapFailure = cl.ErrMapFailure
)

// Typed errors of the serving layer (malid). ErrInvalidJob rejects a
// malformed JobSpec; ErrTenantQuota and ErrUnknownJob surface the
// admission quota (HTTP 429) and the bounded job history (HTTP 404).
// The Client maps wire error codes back onto these, so errors.Is
// works identically in-process and over HTTP.
var (
	ErrInvalidJob  = job.ErrInvalidJob
	ErrTenantQuota = service.ErrTenantQuota
	ErrUnknownJob  = service.ErrUnknownJob
	// ErrAnalysisFailed reports a program rejected by the daemon's
	// static-analysis admission gate (HTTP 422, code "analysis_failed").
	ErrAnalysisFailed = service.ErrAnalysisFailed
)

// Analysis admission policies for ServerConfig.Analysis (and the
// malid -analysis flag): "off", "warn" (default) or "error".
const (
	AnalysisOff   = service.AnalysisOff
	AnalysisWarn  = service.AnalysisWarn
	AnalysisError = service.AnalysisError
)

// VM execution engines (see Engine).
const (
	EngineAuto     = vm.EngineAuto
	EngineInterp   = vm.EngineInterp
	EngineCompiled = vm.EngineCompiled
)

// ErrUnknownEngine reports a MALIGO_ENGINE value that names no engine;
// EngineFromEnvStrict returns it, and every command exits 2 with it at
// startup instead of silently running the default engine.
var ErrUnknownEngine = vm.ErrUnknownEngine

// EngineFromEnv returns the engine selected by the MALIGO_ENGINE
// environment variable, or EngineAuto when unset or unparsable.
func EngineFromEnv() Engine { return vm.EngineFromEnv() }

// EngineFromEnvStrict is EngineFromEnv that rejects a set-but-invalid
// MALIGO_ENGINE with an ErrUnknownEngine-wrapping error instead of
// silently running the default engine; the daemons validate startup
// configuration with it.
func EngineFromEnvStrict() (Engine, error) { return vm.EngineFromEnvStrict() }

// NewContext creates a standalone context from the same functional
// options NewPlatform takes (WithDevices, WithArenaBytes,
// WithWorkers; meter options are ignored) for callers
// that don't want a full Platform. Its queues need no option for the
// event model: Async enqueues, wait-lists, user events and
// out-of-order queues are always available.
func NewContext(opts ...Option) *Context {
	var c config
	for _, opt := range opts {
		opt(&c)
	}
	clOpts := []cl.ContextOption{
		cl.WithArenaBytes(c.opts.ArenaBytes),
		cl.WithWorkers(c.opts.Workers),
	}
	if len(c.devices) > 0 {
		clOpts = append(clOpts, cl.WithDevices(c.devices...))
	}
	return cl.NewContextWith(clOpts...)
}

// EnqueueAsync launches a kernel after every wait-list event completes
// and returns a pending event immediately — the façade spelling of
// Queue.EnqueueNDRangeKernelAsync.
func EnqueueAsync(q *Queue, k *Kernel, workDim int, global, local []int, waitList ...*Event) (*Event, error) {
	return q.EnqueueNDRangeKernelAsync(k, workDim, global, local, waitList)
}

// WaitForEvents mirrors clWaitForEvents: it blocks until every event
// completes and returns the first execution error in list order.
func WaitForEvents(events ...*Event) error { return cl.WaitForEvents(events...) }

// GetDeviceInfo mirrors clGetDeviceInfo for any platform device.
func GetDeviceInfo(d Device) DeviceInfo { return cl.GetDeviceInfo(d) }

// NewMeter creates a standalone power meter with the default 10 Hz
// sampling rate; NewMeterRate sets a custom rate.
func NewMeter(seed uint64) *Meter { return power.NewMeter(seed) }

// NewMeterRate creates a power meter sampling at hz.
func NewMeterRate(seed uint64, hz float64) *Meter { return power.NewMeterRate(seed, hz) }

// WriteChromeTrace writes timeline spans (from Queue.Timeline, or a
// harness Cell's Timeline) in the Chrome tracing JSON format loadable
// by chrome://tracing and https://ui.perfetto.dev. Output is
// deterministic for a given span slice.
func WriteChromeTrace(w io.Writer, spans []Span) error { return obs.WriteChromeTrace(w, spans) }

// FormatHotLines renders a hot-line profile (Queue.LineProfile().Top)
// as a pprof-style top report, annotated with the kernel source text
// when source is non-empty.
func FormatHotLines(stats []LineStat, source string) string {
	return vm.FormatHotLines(stats, source)
}
