package cl

// Asynchronous command queues: the Enqueue*Async variants accept
// OpenCL-style event wait-lists and return immediately with a pending
// Event; the context's DAG scheduler (internal/sched) dispatches each
// command when its dependencies complete. The synchronous Enqueue*
// methods build the same commands and run them inline when their
// in-order queue has nothing scheduled pending (enqueueSync).
// Timestamps stay a pure function of the dependency graph and the
// timing model, so a scheduled in-order chain is bit-identical to the
// inline one and out-of-order overlap is deterministic (never
// host-timing-dependent). See the sched package doc for the exact
// stamp formulas.

import (
	"context"
	"errors"
	"fmt"

	"maligo/internal/sched"
)

// CreateUserEvent mirrors clCreateUserEvent: a host-controlled event
// usable in wait-lists. Commands waiting on it stay queued until the
// host calls SetComplete (or SetError, which cascades the failure).
// User events complete at simulated time zero, keeping downstream
// timestamps independent of host timing.
func (c *Context) CreateUserEvent(name string) (*Event, error) {
	sch := c.scheduler()
	if sch == nil {
		return nil, ErrContextClosed
	}
	se := sch.NewUserEvent(name)
	return &Event{Kind: "user", Name: se.Label(), se: se}, nil
}

// WaitForEvents mirrors clWaitForEvents: it blocks until every event
// completes and returns the first execution error in list order.
func WaitForEvents(events ...*Event) error {
	var first error
	for _, ev := range events {
		if ev == nil {
			continue
		}
		if err := ev.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// EnqueueNDRangeKernelAsync launches the kernel after every wait-list
// event completes, returning a pending event immediately. Argument
// errors are reported synchronously; execution errors (including
// CL_OUT_OF_RESOURCES from bad local sizes) surface on the event.
// Kernel arguments are snapshotted at enqueue time like clEnqueue
// does, so the host may rebind them for the next enqueue right away.
func (q *CommandQueue) EnqueueNDRangeKernelAsync(k *Kernel, workDim int, global, local []int, waitList []*Event) (*Event, error) {
	ev, body, err := q.ndrangeCommand(k, workDim, global, local)
	if err != nil {
		return nil, err
	}
	return q.enqueueAsync(ev, waitList, body)
}

// EnqueueWriteBufferAsync copies host data into the buffer once the
// wait-list completes. The data slice is captured, not copied — the
// host must not mutate it before the event completes.
func (q *CommandQueue) EnqueueWriteBufferAsync(b *Buffer, off int64, data []byte, waitList []*Event) (*Event, error) {
	ev, body, err := q.copyCommand("write", b, off, data)
	if err != nil {
		return nil, err
	}
	return q.enqueueAsync(ev, waitList, body)
}

// EnqueueReadBufferAsync copies buffer contents into data once the
// wait-list completes.
func (q *CommandQueue) EnqueueReadBufferAsync(b *Buffer, off int64, data []byte, waitList []*Event) (*Event, error) {
	ev, body, err := q.copyCommand("read", b, off, data)
	if err != nil {
		return nil, err
	}
	return q.enqueueAsync(ev, waitList, body)
}

// EnqueueMapBufferAsync returns the zero-copy view immediately (the
// arena is unified memory) plus an event that completes when the
// wait-list does — read the view only after the event completes.
func (q *CommandQueue) EnqueueMapBufferAsync(b *Buffer, off, n int64, waitList []*Event) ([]byte, *Event, error) {
	view, err := b.Bytes(off, n)
	if err != nil {
		return nil, nil, err
	}
	ev, err := q.enqueueAsync(&Event{Kind: "map", Seconds: mapSeconds}, waitList, nil)
	if err != nil {
		return nil, nil, err
	}
	return view, ev, nil
}

// EnqueueMarkerWithWaitList mirrors clEnqueueMarkerWithWaitList: a
// zero-duration command that completes when the wait-list does — or,
// with an empty wait-list, when everything previously enqueued on this
// queue has resolved. A failed wait-list event fails it; a failed
// command of the implicit set does not. It does not block later
// commands.
func (q *CommandQueue) EnqueueMarkerWithWaitList(waitList []*Event) (*Event, error) {
	return q.enqueueAsync(&Event{Kind: "marker"}, waitList, nil, withImplicitAll())
}

// EnqueueBarrierWithWaitList mirrors clEnqueueBarrierWithWaitList: it
// completes when the wait-list (or, empty, everything previously
// enqueued on this queue) resolves, with the marker's failure rule, and
// every command enqueued after it waits for it. On an in-order queue
// the barrier is redundant but still recorded.
func (q *CommandQueue) EnqueueBarrierWithWaitList(waitList []*Event) (*Event, error) {
	return q.enqueueAsync(&Event{Kind: "barrier"}, waitList, nil, withImplicitAll(), withBarrier())
}

// cmdBody executes one command under ctx: it fills the command's
// event and returns the dispatch (SUBMIT→START) window. A nil body is
// a fixed-duration command whose event already holds its Seconds.
type cmdBody func(ctx context.Context) (float64, error)

// enqOpt tweaks one enqueueAsync call.
type enqOpt func(*enqCfg)

type enqCfg struct {
	ctx         context.Context
	implicitAll bool // empty wait-list means "all outstanding" (markers, barriers)
	barrier     bool // gate every later command on this one
}

func withBodyCtx(ctx context.Context) enqOpt { return func(c *enqCfg) { c.ctx = ctx } }
func withImplicitAll() enqOpt                { return func(c *enqCfg) { c.implicitAll = true } }
func withBarrier() enqOpt                    { return func(c *enqCfg) { c.barrier = true } }

// enqueueSync runs one command for a synchronous Enqueue* and returns
// its completed event. On an in-order queue whose last scheduled
// command is nil or complete, the body runs inline on the caller under
// enqMu, so no concurrent enqueue on this queue can overtake it, and
// sync enqueues on different queues run in parallel. Otherwise — an
// out-of-order queue, or a scheduled predecessor still pending — the
// command goes through the scheduler and the caller waits for it. A
// failed command, on either path, leaves no trace in history or timing:
// the in-order edge and an empty-wait-list marker or barrier pass on
// only its place in the timeline (see the sched package doc).
func (q *CommandQueue) enqueueSync(ctx context.Context, ev *Event, body cmdBody) (*Event, error) {
	q.enqMu.Lock()
	if !q.OutOfOrder() && (q.prev == nil || q.prev.Complete()) {
		defer q.enqMu.Unlock()
		return q.runInline(ctx, ev, body)
	}
	q.enqMu.Unlock()
	ev, err := q.enqueueAsync(ev, nil, body, withBodyCtx(ctx))
	if err != nil {
		return nil, err
	}
	if werr := ev.Wait(); werr != nil {
		return nil, werr
	}
	return ev, nil
}

// enqueueAsync is the common scheduled-enqueue path: it wires the
// command's dependencies (wait-list, in-order predecessor, barrier),
// submits it to the context scheduler, and registers the completion
// hook that stamps and records the event. body fills ev and returns
// the dispatch window; nil means a fixed-duration command (ev.Seconds
// is already set). On a closed context it degrades to running the body
// inline, mirroring the pool's documented serial fallback.
func (q *CommandQueue) enqueueAsync(ev *Event, waitList []*Event, body cmdBody, opts ...enqOpt) (*Event, error) {
	cfg := enqCfg{ctx: context.Background()}
	for _, o := range opts {
		o(&cfg)
	}
	if ev.Name == "" {
		ev.Name = ev.Kind
	}
	for _, w := range waitList {
		if w == nil {
			return nil, fmt.Errorf("nil event in wait list: %w", ErrInvalidArgValue)
		}
	}
	sch := q.ctx.scheduler()
	if sch == nil {
		return q.runInline(cfg.ctx, ev, body)
	}

	run := func() (sched.Outcome, error) {
		var dispatch float64
		if body != nil {
			// The body context is cancelled by Context.Close with cause
			// ErrContextClosed; the device layer returns bare
			// context.Canceled when aborted, so surface the cause.
			bctx, stop := q.ctx.bodyCtx(cfg.ctx)
			d, err := body(bctx)
			stop()
			if err != nil {
				if cause := context.Cause(bctx); errors.Is(err, context.Canceled) && cause != nil && !errors.Is(err, cause) {
					err = fmt.Errorf("async command %q aborted: %w", ev.Name, cause)
				}
				return sched.Outcome{}, err
			}
			dispatch = d
		}
		return sched.Outcome{Seconds: ev.Seconds, Dispatch: dispatch}, nil
	}

	q.enqMu.Lock()
	defer q.enqMu.Unlock()

	c := sch.NewCommand(ev.Name, run).Lane(q.id)
	seen := make(map[*sched.Event]bool)
	addDep := func(se *sched.Event) {
		if se != nil && !seen[se] {
			seen[se] = true
			c.After(se)
		}
	}
	for _, w := range waitList {
		// Events of inline enqueues have no scheduler state and are
		// complete by construction — nothing to wait for.
		if w.se != nil && seen[w.se] {
			return nil, fmt.Errorf("event %q listed twice in wait list: %w", w.Name, sched.ErrDoubleWait)
		}
		addDep(w.se)
	}
	if cfg.implicitAll && len(waitList) == 0 {
		// Like the in-order edge, the implicit set only orders: a
		// failed command in it does not fail the marker or barrier.
		c.OrderAfter(q.outstanding...)
	}
	if q.OutOfOrder() {
		addDep(q.barrier)
	} else if q.prev != nil {
		c.QueuedAfter(q.prev)
	}
	q.mu.Lock()
	gen := q.gen
	if !q.OutOfOrder() {
		// A scheduled command may follow inline commands on this
		// queue, which carry no scheduler event; the chain resumes
		// from the queue clock.
		c.MinQueued(q.clock)
	}
	q.mu.Unlock()
	ev.se = c.Event()
	c.OnComplete(q.recordAsync(ev, gen))

	if err := sch.Submit(c); err != nil {
		if errors.Is(err, sched.ErrClosed) {
			ev.se = nil
			return q.runInline(cfg.ctx, ev, body)
		}
		ev.se = nil
		return nil, err
	}
	if !q.OutOfOrder() {
		q.prev = c.Event()
	}
	if cfg.barrier {
		q.barrier = c.Event()
	}
	q.outstanding = append(q.outstanding, c.Event())
	return ev, nil
}

// recordAsync returns the completion hook of one scheduled command: it
// copies the DAG-derived stamps into the event and appends it to the
// queue history. Failed commands are not recorded — exactly like the
// inline path, which returns an error instead of an event — and
// completions from before a ResetEvents (stale gen) are dropped.
func (q *CommandQueue) recordAsync(ev *Event, gen uint64) func(*sched.Event) {
	return func(se *sched.Event) {
		if se.Failed() {
			return
		}
		queued, submitted, started, ended := se.Stamps()
		q.mu.Lock()
		if gen != q.gen {
			q.mu.Unlock()
			return
		}
		ev.Queued = queued
		ev.Submitted = submitted
		ev.Started = started
		ev.Ended = ended
		ev.Seq = len(q.events)
		q.events = append(q.events, ev)
		if ended > q.clock {
			q.clock = ended
		}
		q.mu.Unlock()
		q.ctx.metrics.Counter("cl.enqueues." + ev.Kind).Inc()
	}
}

// runInline executes a command body on the caller and records it
// with the queue clock: the synchronous fast path, and the serial
// fallback for enqueues that race context Close.
func (q *CommandQueue) runInline(ctx context.Context, ev *Event, body cmdBody) (*Event, error) {
	var dispatch float64
	if body != nil {
		var err error
		if dispatch, err = body(ctx); err != nil {
			return nil, err
		}
	}
	return q.record(ev, dispatch), nil
}
