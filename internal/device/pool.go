package device

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"maligo/internal/vm"
)

// Pool is a host-side worker pool that executes work-groups
// concurrently. Workers are persistent goroutines so repeated enqueues
// (the harness runs thousands of groups) don't pay goroutine startup.
type Pool struct {
	jobs    chan func()
	workers int
	wg      sync.WaitGroup
	once    sync.Once

	busy atomic.Int64  // workers currently executing a job
	done atomic.Uint64 // jobs completed since creation
}

// NewPool creates a pool with the given number of workers; workers <= 0
// selects runtime.NumCPU().
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	p := &Pool{jobs: make(chan func()), workers: workers}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for job := range p.jobs {
				p.busy.Add(1)
				job()
				p.busy.Add(-1)
				p.done.Add(1)
			}
		}()
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Run executes f on a pool worker and waits for it to return. The
// async command scheduler dispatches command bodies through this, so
// a body's own RunGroups fan-out shares the remaining workers; that
// nesting is deadlock-free because pools only exist with two or more
// workers and at most one command body runs at a time. Must not race
// with Close.
func (p *Pool) Run(f func()) {
	done := make(chan struct{})
	p.jobs <- func() {
		defer close(done)
		f()
	}
	<-done
}

// Stats reports pool occupancy: jobs completed since creation and the
// number of workers executing right now. Both are instantaneous
// observations, meant for metrics gauges.
func (p *Pool) Stats() (jobsDone uint64, busyWorkers int) {
	return p.done.Load(), int(p.busy.Load())
}

// Close stops the workers. Safe to call more than once; must not race
// with submit.
func (p *Pool) Close() {
	p.once.Do(func() {
		close(p.jobs)
		p.wg.Wait()
	})
}

// RaceObserver receives each work-group's detailed memory trace for
// dynamic race analysis (vm.RaceDetector implements it, as does
// vm.LineProfiler for hot-line attribution). Called in dispatch order
// on the consuming goroutine.
type RaceObserver interface {
	ObserveGroup(group [3]int, tr *vm.Trace)
}

// FanObservers combines trace observers so one enqueue can feed both
// the race detector and the line profiler from a single detailed
// trace. Nil entries are dropped; nil is returned when none remain.
func FanObservers(obs ...RaceObserver) RaceObserver {
	var live []RaceObserver
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return observerFan(live)
}

type observerFan []RaceObserver

func (f observerFan) ObserveGroup(group [3]int, tr *vm.Trace) {
	for _, o := range f {
		o.ObserveGroup(group, tr)
	}
}

// RunConfig carries the execution context of one enqueue: an optional
// cancellation context, an optional worker pool and an optional race
// observer. The zero value means "serial, non-cancellable, unchecked"
// — exactly the legacy Run behaviour.
type RunConfig struct {
	Ctx  context.Context
	Pool *Pool
	// Race, when non-nil, makes the engine record detailed (work-item
	// attributed) traces and hand each group's trace to the observer
	// before cost accounting.
	Race RaceObserver
	// Engine selects the VM execution engine (reference interpreter or
	// the closure-compiled fast path); the zero value resolves to the
	// fast path. Both engines are observationally identical.
	Engine vm.Engine
	// Record, when non-nil and Race is nil, is the record sink: every
	// group is traced with a retained trace (vm.Trace.Retain), and each
	// group that consume accepted is handed to Record in dispatch
	// order. Record owns the trace from then on; the consumer's Release
	// leaves it replayable.
	Record func(*GroupWork)
	// Replay, when non-nil, is the replay source: RunGroups executes
	// nothing and feeds these recorded groups to consume in dispatch
	// order, checking the context between groups.
	Replay []*GroupWork
}

// Parallel reports whether this config asks for concurrent execution.
func (rc RunConfig) Parallel() bool { return rc.Pool != nil && rc.Pool.workers > 1 }

// Context returns rc.Ctx or context.Background().
func (rc RunConfig) Context() context.Context {
	if rc.Ctx != nil {
		return rc.Ctx
	}
	return context.Background()
}

// ContextRunner is implemented by devices that support cancellable
// and/or pool-parallel execution. Devices that only implement Run keep
// working: the runtime falls back to serial execution for them.
type ContextRunner interface {
	RunWith(rc RunConfig, ndr *NDRange, mem vm.GlobalMemory) (*Report, error)
}

// GroupWork is one functionally-executed work-group: its profile and
// its recorded memory trace, ready for cost accounting.
type GroupWork struct {
	// Index is the dispatch index (row-major group order).
	Index int
	// Group is the 3-D work-group ID.
	Group [3]int
	// Profile holds the group's instruction counts. For a streamed
	// group it is complete once Trace.Replay has returned.
	Profile vm.Profile
	// Trace is the group's memory-event stream in program order. The
	// consumer must Replay it, then Release it. A group whose trace
	// fills a chunk is handed over while it is still executing:
	// Replay follows the recording until the group finishes, and a
	// Release without Replay waits for it and discards the records.
	Trace *vm.Trace

	// err is the group's execution error, final once the trace is
	// complete (for a streamed group: once it has been drained).
	err error
}

// groupResult announces a group to the ordered fan-in: when it
// finished, when it started streaming (streamed), or when it was
// skipped (gw nil, err says why).
type groupResult struct {
	index    int
	gw       *GroupWork
	streamed bool
	err      error
}

// RunGroups executes every work-group of the NDRange, recording each
// group's memory trace, and invokes consume for each group strictly in
// dispatch (row-major) order. Consume runs on the calling goroutine,
// so a stateful cost model (shared cache, miss classifier) sees the
// same access stream at every worker count — that is what keeps
// parallel reports bit-identical. Consume must Replay the group's
// trace, then Release it.
//
// Without a parallel pool every group runs on the calling goroutine
// and is consumed as soon as it finishes; rc.Replay skips execution
// altogether (see RunConfig). With a pool, a group whose trace fills
// its first chunk announces itself while it is still executing. Once
// it heads the dispatch order, consume's Replay feeds the timing model
// from its chunks as they fill, so the model overlaps the group that
// produces the trace as well as the groups after it. Groups that never
// fill a chunk, and detail-mode groups, are handed over once they
// finish.
//
// Functional memory effects (stores, atomics) hit mem during the
// concurrent phase in nondeterministic group order; this is sound for
// data-parallel kernels, whose groups write disjoint ranges or combine
// via commutative atomics. The first error, in dispatch order, is
// returned — "stop at first failing group" semantics: every earlier
// group is consumed, and so is the failing group's trace up to the
// fault. Neither the race observer nor the record sink sees the
// failing group; whoever recorded the groups before it discards them.
func RunGroups(rc RunConfig, ndr *NDRange, gmem vm.GlobalMemory, consume func(*GroupWork) error) error {
	if rc.Replay != nil {
		return replayGroups(rc, consume)
	}
	if !rc.Parallel() {
		return serialGroups(rc, ndr, gmem, consume)
	}
	ctx, cancel := context.WithCancel(rc.Context())
	defer cancel()
	pool := rc.Pool

	// Bound the number of in-flight groups (dispatched but not yet
	// consumed) so trace memory stays proportional to the pool size
	// even when one slow group stalls the ordered consumer.
	window := 2 * pool.Workers()
	sem := make(chan struct{}, window)
	results := make(chan groupResult, window)

	// stop is the dispatch index of the first failure found so far.
	// Groups after it are skipped; groups before it still run, since
	// serial execution would have consumed them.
	var stop atomic.Int64
	stop.Store(math.MaxInt64)

	// Dispatcher: enumerate groups in row-major order, submitting each
	// to the pool. Reports how many it dispatched so the fan-in knows
	// when to stop, including after cancellation.
	dispatchedCh := make(chan int, 1)
	go func() {
		dispatched := 0
		_ = ForEachGroup(ndr, func(group [3]int) error {
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				return ctx.Err()
			}
			idx := dispatched
			g := group
			pool.jobs <- func() {
				if err := rc.Context().Err(); err != nil {
					results <- groupResult{index: idx, err: err}
					return
				}
				if int64(idx) > stop.Load() {
					results <- groupResult{index: idx, err: context.Canceled}
					return
				}
				gw := &GroupWork{Index: idx, Group: g, Trace: newGroupTrace(rc)}
				if rc.Race == nil {
					gw.Trace.Stream(func() { results <- groupResult{index: idx, gw: gw, streamed: true} })
				}
				runGroup(rc, ndr, gmem, gw)
				// A streamed group was handed over when it announced;
				// Finish lets its Replay return.
				if !gw.Trace.Finish() {
					results <- groupResult{index: idx, gw: gw}
				}
			}
			dispatched++
			return nil
		})
		dispatchedCh <- dispatched
	}()

	// Ordered fan-in: consume results in dispatch-index order using a
	// reorder buffer. firstErr keeps the lowest-index error, which is
	// the one serial execution would have hit first.
	pending := make(map[int]groupResult)
	next, received := 0, 0
	dispatchedTotal, haveTotal := 0, false
	var firstErr error
	errIndex := math.MaxInt

	fail := func(idx int, err error) {
		if idx < errIndex {
			firstErr, errIndex = err, idx
			stop.Store(int64(idx))
		}
		cancel()
	}

	for !haveTotal || received < dispatchedTotal {
		select {
		case n := <-dispatchedCh:
			dispatchedTotal, haveTotal = n, true
		case res := <-results:
			received++
			<-sem
			if res.gw == nil {
				// A Canceled error caused by our own internal cancel
				// (after an earlier failure) is fallout, not a finding
				// — it must not displace the real first error.
				if !(errors.Is(res.err, context.Canceled) && rc.Context().Err() == nil) {
					fail(res.index, res.err)
				}
				continue
			}
			if res.index > errIndex {
				res.gw.Trace.Discard()
				continue
			}
			if !res.streamed && res.gw.err != nil {
				fail(res.index, res.gw.err) // stop dispatch; consumed below in order
			}
			pending[res.index] = res
			for next <= errIndex {
				r, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				next++
				if err := deliver(rc, r.gw, consume); err != nil {
					fail(r.index, err)
				}
			}
		}
	}
	// Discarding a streamed trace waits for its group to finish, so no
	// worker is still executing once RunGroups returns.
	for _, r := range pending { // maligo:allow maporder releasing distinct traces commutes
		r.gw.Trace.Discard()
	}
	if firstErr != nil {
		return firstErr
	}
	return rc.Context().Err()
}

// recording reports whether rc asks for retained traces.
func (rc RunConfig) recording() bool { return rc.Record != nil && rc.Race == nil }

// newGroupTrace returns the trace one group records into: a detail
// trace for the race observer, a retained one for the record sink.
func newGroupTrace(rc RunConfig) *vm.Trace {
	tr := vm.NewTrace()
	if rc.Race != nil {
		tr.EnableDetail()
	} else if rc.recording() {
		tr.Retain()
	}
	return tr
}

// runGroup executes one work-group into gw's trace and profile.
func runGroup(rc RunConfig, ndr *NDRange, gmem vm.GlobalMemory, gw *GroupWork) {
	cfg := &vm.GroupConfig{
		Kernel:       ndr.Kernel,
		WorkDim:      ndr.WorkDim,
		GroupID:      gw.Group,
		LocalSize:    ndr.Local,
		GlobalSize:   ndr.Global,
		GlobalOffset: ndr.Offset,
		Args:         ndr.Args,
		Mem:          gmem,
		Observer:     gw.Trace,
		Engine:       rc.Engine,
	}
	gw.err = vm.RunGroup(cfg, &gw.Profile)
}

// deliver hands one group, at the head of the dispatch order, to the
// race observer, consume and the record sink, and returns the group's
// error. A failing group's trace still reaches consume up to the fault,
// as the cost model would have seen it.
func deliver(rc RunConfig, gw *GroupWork, consume func(*GroupWork) error) error {
	if rc.Race != nil && gw.err == nil {
		rc.Race.ObserveGroup(gw.Group, gw.Trace)
	}
	err := consume(gw)
	// gw.err is final now: consume drained a streamed trace.
	if gw.err != nil {
		err = gw.err
	}
	switch {
	case !rc.recording():
	case err != nil:
		gw.Trace.Discard() // consume's Release kept the retained trace
	default:
		rc.Record(gw)
	}
	return err
}

// serialGroups is RunGroups without a parallel pool: each group runs
// on the calling goroutine and is consumed before the next starts.
// The context is checked between groups.
func serialGroups(rc RunConfig, ndr *NDRange, gmem vm.GlobalMemory, consume func(*GroupWork) error) error {
	ctx := rc.Context()
	idx := 0
	return ForEachGroup(ndr, func(group [3]int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		gw := &GroupWork{Index: idx, Group: group, Trace: newGroupTrace(rc)}
		idx++
		runGroup(rc, ndr, gmem, gw)
		return deliver(rc, gw, consume)
	})
}

// replayGroups feeds rc.Replay to consume in order, checking the
// context between groups.
func replayGroups(rc RunConfig, consume func(*GroupWork) error) error {
	ctx := rc.Context()
	for _, gw := range rc.Replay {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := consume(gw); err != nil {
			return err
		}
	}
	return nil
}
