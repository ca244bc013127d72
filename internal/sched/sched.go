// Package sched implements the per-context DAG scheduler behind the
// asynchronous command queues: commands are submitted with wait-lists
// of events, dispatch topologically as their dependencies complete,
// and carry simulated profiling timestamps derived purely from the
// dependency graph and the timing model — never from host goroutine
// interleaving.
//
// # Determinism contract
//
// The scheduler executes at most one command body at a time, always
// picking the lowest-sequence ready command (unless a test installs a
// different chooser via WithChooser — any choice is a valid
// topological order). Command bodies may themselves shard work-groups
// across the device worker pool, so host parallelism is preserved;
// what the serial executor buys is that stateful device models (the
// shared L2, the miss classifier) see command streams in a
// deterministic order, keeping reports bit-identical run to run.
//
// Simulated timestamps are a pure function of the DAG:
//
//	QUEUED  = Ended of the QueuedAfter event (the in-order
//	          predecessor; its QUEUED if it failed), or 0 — an
//	          out-of-order enqueue is instantaneous at simulated
//	          time zero
//	SUBMIT  = max(QUEUED, Ended of every wait-list and OrderAfter
//	          event)
//	START   = SUBMIT + dispatch overhead (clamped into [0, Seconds])
//	END     = SUBMIT + Seconds
//
// For a lone in-order queue this reproduces the stamps of the cl
// runtime's inline path bit-for-bit (QUEUED == SUBMIT, commands tile
// the timeline); across queues it yields deterministic overlap
// windows. User events complete at simulated time zero regardless of
// when the host signals them, so stamps never depend on host timing.
//
// # Failure
//
// A failed event fails every command that lists it in its wait list
// (ErrDepFailed wrapping the cause). The QueuedAfter and OrderAfter
// edges only order: a command never resolves before its in-order
// predecessor or its OrderAfter events do, but their failure is not
// passed on (a failed event ends at 0). A failed command keeps
// its QUEUED stamp and takes no simulated time, so its in-order
// successor queues where it would have and QUEUED never goes
// backwards along a chain.
package sched

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Typed errors of the queue contract. Everything the scheduler rejects
// or detects is wrapped around one of these, so callers can errors.Is.
var (
	// ErrClosed reports a submission to (or a wait on) a scheduler
	// that was shut down.
	ErrClosed = errors.New("sched: scheduler closed")
	// ErrDoubleWait reports the same event appearing twice in one
	// command's wait list.
	ErrDoubleWait = errors.New("sched: duplicate event in wait list")
	// ErrOrphanEvent reports a dependency that can never complete: a
	// command event whose command was never submitted, or — at
	// Finish/WaitEvent time — a queue stalled on a user event nobody
	// has signalled.
	ErrOrphanEvent = errors.New("sched: wait on event that can never complete")
	// ErrForeignEvent reports a wait-list event owned by a different
	// scheduler (OpenCL: events are context-scoped).
	ErrForeignEvent = errors.New("sched: event belongs to a different scheduler")
	// ErrNotUserEvent reports SetComplete/SetError on a non-user event.
	ErrNotUserEvent = errors.New("sched: not a user event")
	// ErrAlreadyComplete reports a second SetComplete/SetError on a
	// user event.
	ErrAlreadyComplete = errors.New("sched: user event already complete")
	// ErrDepFailed wraps the error of a failed dependency when the
	// failure cascades to dependent commands.
	ErrDepFailed = errors.New("sched: dependency failed")
)

// Status is an event's lifecycle state, mirroring the OpenCL execution
// statuses CL_QUEUED/CL_SUBMITTED/CL_RUNNING/CL_COMPLETE (with Failed
// standing in for a negative status).
type Status int32

// Event statuses.
const (
	StatusQueued   Status = iota // waiting on dependencies
	StatusReady                  // dependencies satisfied, awaiting the executor
	StatusRunning                // command body executing
	StatusComplete               // finished successfully
	StatusFailed                 // finished with an error
)

// String names the status like the OpenCL constants do.
func (s Status) String() string {
	switch s {
	case StatusQueued:
		return "QUEUED"
	case StatusReady:
		return "SUBMITTED"
	case StatusRunning:
		return "RUNNING"
	case StatusComplete:
		return "COMPLETE"
	case StatusFailed:
		return "FAILED"
	}
	return fmt.Sprintf("Status(%d)", int32(s))
}

// Outcome is what a command body reports back: its simulated duration
// and the dispatch (SUBMIT→START) window, both in seconds.
type Outcome struct {
	Seconds  float64
	Dispatch float64
}

// Event is the completion handle of one command (or a user event). All
// mutable state is guarded by the scheduler mutex until the done
// channel closes; after that the stamps and error are immutable and
// may be read freely.
type Event struct {
	s     *Scheduler
	id    int64
	user  bool
	label string
	cmd   *Command // producing command; nil for user events

	done chan struct{}

	// Guarded by s.mu until done closes.
	status                            Status
	err                               error
	queued, submitted, started, ended float64
	waiters                           []*Command
}

// Label returns the event's display label.
func (e *Event) Label() string { return e.label }

// IsUserEvent reports whether this is a host-signalled user event.
func (e *Event) IsUserEvent() bool { return e.user }

// Done returns a channel closed when the event completes or fails.
func (e *Event) Done() <-chan struct{} { return e.done }

// Failed reports whether the event finished with an error. Unlike Err
// it is already meaningful inside OnComplete callbacks, which run just
// before the done channel closes.
func (e *Event) Failed() bool {
	return e.Status() == StatusFailed
}

// Complete reports whether the event has finished (either way).
func (e *Event) Complete() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// Status returns the event's current lifecycle state.
func (e *Event) Status() Status {
	e.s.mu.Lock()
	defer e.s.mu.Unlock()
	return e.status
}

// Err returns the event's error; nil while pending or on success.
func (e *Event) Err() error {
	if !e.Complete() {
		return nil
	}
	return e.err
}

// Stamps returns the simulated QUEUED/SUBMIT/START/END timestamps.
// Meaningful only after the event completes successfully; a failed
// command keeps only its QUEUED stamp.
func (e *Event) Stamps() (queued, submitted, started, ended float64) {
	e.s.mu.Lock()
	defer e.s.mu.Unlock()
	return e.queued, e.submitted, e.started, e.ended
}

// Wait blocks until the event completes and returns its error. It does
// not detect stalls; prefer Scheduler.WaitEvent when the waiting
// goroutine is also the one that would signal user events.
func (e *Event) Wait() error {
	<-e.done
	return e.err
}

// SetComplete transitions a user event to StatusComplete, releasing
// every command waiting on it. User events complete at simulated time
// zero so downstream stamps stay independent of host timing.
func (e *Event) SetComplete() error { return e.setUser(nil) }

// SetError transitions a user event to StatusFailed with err (which
// must be non-nil), cascading the failure to dependent commands.
func (e *Event) SetError(err error) error {
	if err == nil {
		err = errors.New("sched: user event failed")
	}
	return e.setUser(err)
}

func (e *Event) setUser(err error) error {
	s := e.s
	if !e.user {
		return fmt.Errorf("%s: %w", e.label, ErrNotUserEvent)
	}
	s.mu.Lock()
	if e.status >= StatusComplete {
		s.mu.Unlock()
		return fmt.Errorf("%s: %w", e.label, ErrAlreadyComplete)
	}
	var fired []*Event
	s.finishLocked(e, Outcome{}, err, &fired)
	s.bumpLocked()
	s.mu.Unlock()
	s.fire(fired)
	return nil
}

// Command is one schedulable unit of work: a body to execute plus the
// events it waits on. Build it with Scheduler.NewCommand, chain
// configuration, then Submit.
type Command struct {
	s     *Scheduler
	label string
	lane  int
	run   func() (Outcome, error)

	deps        []*Event
	orderAfter  []*Event
	queuedAfter *Event
	minQueued   float64
	onComplete  func(*Event)
	depErr      error // a wait-list event failed; fail once the ordering edges resolve

	ev        *Event
	seq       int64
	ndeps     int
	submitted bool
}

// NewCommand creates an unsubmitted command. run executes the body and
// reports the simulated outcome; a nil run is a zero-duration command
// (markers, barriers).
func (s *Scheduler) NewCommand(label string, run func() (Outcome, error)) *Command {
	c := &Command{s: s, label: label, run: run}
	c.ev = &Event{s: s, label: label, cmd: c, done: make(chan struct{})}
	return c
}

// Event returns the command's completion event (valid before Submit).
func (c *Command) Event() *Event { return c.ev }

// After appends events to the command's wait list.
func (c *Command) After(evs ...*Event) *Command {
	for _, e := range evs {
		if e != nil {
			c.deps = append(c.deps, e)
		}
	}
	return c
}

// OrderAfter adds events the command must not resolve before, without
// waiting on their outcome: like the QueuedAfter edge, their failure
// is not passed on. The cl runtime orders an empty-wait-list marker or
// barrier after the queue's outstanding commands this way.
func (c *Command) OrderAfter(evs ...*Event) *Command {
	for _, e := range evs {
		if e != nil {
			c.orderAfter = append(c.orderAfter, e)
		}
	}
	return c
}

// QueuedAfter sets the event whose END defines this command's QUEUED
// stamp — the in-order predecessor on the same queue. The command does
// not resolve before it, but its failure does not cascade (see the
// package doc). Nil (the default) queues at simulated time zero, the
// out-of-order behaviour.
func (c *Command) QueuedAfter(e *Event) *Command {
	c.queuedAfter = e
	return c
}

// MinQueued sets a floor on the command's QUEUED stamp. The cl runtime
// uses it when a scheduled command follows commands its in-order queue
// ran inline: the queue clock is where the chain left off, even though
// no scheduler event carries that time.
func (c *Command) MinQueued(t float64) *Command {
	if t > c.minQueued {
		c.minQueued = t
	}
	return c
}

// OnComplete registers fn to run (on the completing goroutine, without
// scheduler locks held) right after the command's event is stamped.
func (c *Command) OnComplete(fn func(*Event)) *Command {
	c.onComplete = fn
	return c
}

// Lane tags the command with a queue/lane id for diagnostics.
func (c *Command) Lane(id int) *Command {
	c.lane = id
	return c
}

// allDeps invokes fn for every dependency, including the ordering
// edges (QueuedAfter, OrderAfter).
func (c *Command) allDeps(fn func(*Event)) {
	if c.queuedAfter != nil {
		fn(c.queuedAfter)
	}
	for _, d := range c.orderAfter {
		fn(d)
	}
	for _, d := range c.deps {
		fn(d)
	}
}

// waitsOn reports whether e is in the command's wait list.
func (c *Command) waitsOn(e *Event) bool {
	for _, d := range c.deps {
		if d == e {
			return true
		}
	}
	return false
}

// predPending reports whether one of the command's ordering edges,
// other than e, has yet to resolve.
func (c *Command) predPending(e *Event) bool {
	pending := func(d *Event) bool { return d != nil && d != e && d.status < StatusComplete }
	if pending(c.queuedAfter) {
		return true
	}
	for _, d := range c.orderAfter {
		if pending(d) {
			return true
		}
	}
	return false
}

// Scheduler dispatches submitted commands in topological order on a
// single executor goroutine. Create one per context with New; Close it
// when the context closes.
type Scheduler struct {
	mu   sync.Mutex
	cond *sync.Cond

	chooser func(seqs []int64) int // picks among ready commands; tests only
	genCh   chan struct{}          // closed+replaced on every state change
	ready   []*Command             // sorted by seq
	pending map[*Command]struct{}  // submitted, not yet finished
	running *Command
	nextSeq int64
	nextID  int64
	closed  bool
	wg      sync.WaitGroup
}

// Option configures New.
type Option func(*Scheduler)

// WithChooser installs a scheduling-policy hook: given the sequence
// numbers of every ready command, pick returns the index to run next.
// Any choice yields a valid topological order; the conformance suite
// uses this to prove order-independence. The default picks the lowest
// sequence number, which is what keeps stateful device models
// bit-identical to the cl runtime's inline path.
func WithChooser(pick func(seqs []int64) int) Option {
	return func(s *Scheduler) { s.chooser = pick }
}

// New creates a scheduler and starts its executor goroutine.
func New(opts ...Option) *Scheduler {
	s := &Scheduler{genCh: make(chan struct{}), pending: make(map[*Command]struct{})}
	s.cond = sync.NewCond(&s.mu)
	for _, o := range opts {
		o(s)
	}
	s.wg.Add(1)
	go s.loop()
	return s
}

// NewUserEvent creates a host-signalled event in StatusQueued.
// Complete it with SetComplete or SetError.
func (s *Scheduler) NewUserEvent(label string) *Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	if label == "" {
		label = fmt.Sprintf("user-event-%d", s.nextID)
	}
	return &Event{s: s, label: label, user: true, done: make(chan struct{})}
}

// Submit validates one command and enqueues it. Every dependency must
// be a user event or the event of an already-submitted command, so the
// dependency graph is acyclic by construction; duplicate waits,
// foreign events and orphan dependencies are rejected with typed
// errors.
func (s *Scheduler) Submit(c *Command) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if c.s != s {
		s.mu.Unlock()
		return fmt.Errorf("command %q: %w", c.label, ErrForeignEvent)
	}
	if c.submitted {
		s.mu.Unlock()
		return fmt.Errorf("command %q submitted twice: %w", c.label, ErrDoubleWait)
	}
	seen := make(map[*Event]bool, len(c.deps))
	for _, d := range c.deps {
		if seen[d] {
			s.mu.Unlock()
			return fmt.Errorf("command %q waits twice on %q: %w", c.label, d.label, ErrDoubleWait)
		}
		seen[d] = true
	}
	var depErr error
	c.allDeps(func(d *Event) {
		if depErr != nil {
			return
		}
		switch {
		case d.s != s:
			depErr = fmt.Errorf("command %q waits on %q: %w", c.label, d.label, ErrForeignEvent)
		case !d.user && !d.cmd.submitted:
			depErr = fmt.Errorf("command %q waits on unsubmitted %q: %w", c.label, d.label, ErrOrphanEvent)
		}
	})
	if depErr != nil {
		s.mu.Unlock()
		return depErr
	}

	// Accepted: assign the sequence number and wire the dependency
	// counts under the same critical section, so no event can complete
	// between validation and registration.
	var fired []*Event
	c.seq = s.nextSeq
	s.nextSeq++
	c.submitted = true
	s.pending[c] = struct{}{}
	failed := error(nil)
	c.allDeps(func(d *Event) {
		switch d.status {
		case StatusComplete:
		case StatusFailed:
			if failed == nil && c.waitsOn(d) {
				failed = fmt.Errorf("%q waits on failed %q: %w", c.label, d.label, errors.Join(ErrDepFailed, d.err))
			}
		default:
			c.ndeps++
			d.waiters = append(d.waiters, c)
		}
	})
	switch {
	case failed != nil && c.predPending(nil):
		c.depErr = failed
	case failed != nil:
		s.finishLocked(c.ev, Outcome{}, failed, &fired)
	case c.ndeps == 0:
		s.pushReadyLocked(c)
	}
	s.bumpLocked()
	s.cond.Broadcast()
	s.mu.Unlock()
	s.fire(fired)
	return nil
}

// pushReadyLocked inserts c into the ready list, kept sorted by seq.
func (s *Scheduler) pushReadyLocked(c *Command) {
	c.ev.status = StatusReady
	i := sort.Search(len(s.ready), func(i int) bool { return s.ready[i].seq > c.seq })
	s.ready = append(s.ready, nil)
	copy(s.ready[i+1:], s.ready[i:])
	s.ready[i] = c
}

// bumpLocked signals every state-change watcher: WaitEvent loops (via
// the generation channel) and the executor's cond.Wait — SetComplete
// on a user event may have just made a command ready.
func (s *Scheduler) bumpLocked() {
	close(s.genCh)
	s.genCh = make(chan struct{})
	s.cond.Broadcast()
}

// fire closes done channels and runs OnComplete callbacks outside the
// scheduler lock, in completion order.
func (s *Scheduler) fire(evs []*Event) {
	for _, e := range evs {
		if c := e.cmd; c != nil && c.onComplete != nil {
			fn := c.onComplete
			c.onComplete = nil // runs once; release what it captured
			fn(e)
		}
		close(e.done)
	}
}

// finishLocked stamps and completes an event, cascading failures to
// its waiters. Completed events are appended to fired for the caller
// to fire outside the lock (in dependency order).
func (s *Scheduler) finishLocked(e *Event, out Outcome, err error, fired *[]*Event) {
	if e.status >= StatusComplete {
		return
	}
	if c := e.cmd; c != nil {
		e.queued = c.minQueued
		if qa := c.queuedAfter; qa != nil {
			tail := qa.ended
			if qa.status == StatusFailed {
				tail = qa.queued
			}
			if tail > e.queued {
				e.queued = tail
			}
		}
		e.submitted = e.queued
		c.allDeps(func(d *Event) {
			if d.ended > e.submitted {
				e.submitted = d.ended
			}
		})
		dispatch := out.Dispatch
		if dispatch < 0 {
			dispatch = 0
		}
		if dispatch > out.Seconds {
			dispatch = out.Seconds
		}
		e.started = e.submitted + dispatch
		e.ended = e.submitted + out.Seconds
		delete(s.pending, c)
		// A finished command is only its event's stamps. Drop the body
		// and the dependency edges so an in-order chain does not keep
		// every earlier command, and all its body captured, reachable
		// from the latest event.
		c.run, c.deps, c.orderAfter, c.queuedAfter, c.depErr = nil, nil, nil, nil, nil
	}
	if err != nil {
		e.status = StatusFailed
		e.err = err
		e.submitted, e.started, e.ended = 0, 0, 0
	} else {
		e.status = StatusComplete
	}
	*fired = append(*fired, e)
	waiters := e.waiters
	e.waiters = nil
	for _, w := range waiters {
		if w.ev.status >= StatusComplete {
			continue
		}
		if err != nil && w.waitsOn(e) {
			werr := fmt.Errorf("%q: %w", w.label, errors.Join(ErrDepFailed, err))
			if w.predPending(e) {
				if w.depErr == nil {
					w.depErr = werr
				}
				continue
			}
			s.finishLocked(w.ev, Outcome{}, werr, fired)
			continue
		}
		if w.depErr != nil && !w.predPending(e) {
			s.finishLocked(w.ev, Outcome{}, w.depErr, fired)
			continue
		}
		if w.ndeps--; w.ndeps == 0 {
			s.pushReadyLocked(w)
		}
	}
}

// loop is the executor: it picks one ready command at a time (lowest
// sequence, unless a chooser says otherwise), runs its body on this
// goroutine, and completes its event.
func (s *Scheduler) loop() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.ready) == 0 && !s.closed {
			s.bumpLocked() // lets WaitEvent observe stalls
			s.cond.Wait()
		}
		if s.closed {
			// Fail whatever is still queued so waiters unblock.
			var fired []*Event
			for _, c := range s.ready {
				s.finishLocked(c.ev, Outcome{}, fmt.Errorf("%q: %w", c.label, ErrClosed), &fired)
			}
			s.ready = nil
			s.bumpLocked()
			s.mu.Unlock()
			s.fire(fired)
			return
		}
		i := 0
		if s.chooser != nil && len(s.ready) > 1 {
			seqs := make([]int64, len(s.ready))
			for j, c := range s.ready {
				seqs[j] = c.seq
			}
			if k := s.chooser(seqs); k >= 0 && k < len(s.ready) {
				i = k
			}
		}
		c := s.ready[i]
		s.ready = append(s.ready[:i], s.ready[i+1:]...)
		c.ev.status = StatusRunning
		s.running = c
		s.bumpLocked()
		s.mu.Unlock()

		var out Outcome
		var err error
		if c.run != nil {
			out, err = c.run()
		}

		s.mu.Lock()
		s.running = nil
		var fired []*Event
		s.finishLocked(c.ev, out, err, &fired)
		s.bumpLocked()
		s.mu.Unlock()
		s.fire(fired)
	}
}

// stalledLocked reports a scheduler that can make no progress on its
// own: commands are pending but none is ready or running — every one
// of them is (transitively) blocked on user events nobody signalled.
func (s *Scheduler) stalledLocked() bool {
	return len(s.pending) > 0 && len(s.ready) == 0 && s.running == nil
}

// Pending returns the number of submitted, unfinished commands.
func (s *Scheduler) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// WaitEvent blocks until e completes, returning its error. It fails
// fast instead of deadlocking: ctx cancellation returns ctx.Err(), and
// a scheduler stalled on unsignalled user events returns
// ErrOrphanEvent — the simulator's answer to a clFinish that would
// hang forever. Hosts that signal user events from another goroutine
// should use Event.Wait instead.
func (s *Scheduler) WaitEvent(ctx context.Context, e *Event) error {
	if e.s != s {
		return fmt.Errorf("%q: %w", e.label, ErrForeignEvent)
	}
	for {
		select {
		case <-e.done:
			return e.err
		default:
		}
		s.mu.Lock()
		ch := s.genCh
		stalled := s.stalledLocked()
		s.mu.Unlock()
		if stalled && !e.Complete() {
			return fmt.Errorf("%q blocked on unsignalled user event: %w", e.label, ErrOrphanEvent)
		}
		select {
		case <-e.done:
			return e.err
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

// Close shuts the scheduler down: the running command (if any)
// completes first, every other pending command fails with ErrClosed,
// and the executor goroutine exits before Close returns. Idempotent.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.bumpLocked()
	s.mu.Unlock()
	// The executor completes its running command, fails the ready
	// ones, then exits.
	s.wg.Wait()

	// Sweep commands that were still blocked on dependencies (user
	// events nobody signalled, or deps the executor just failed).
	s.mu.Lock()
	var fired []*Event
	for len(s.pending) > 0 {
		var c *Command
		for cand := range s.pending { // maligo:allow maporder min-seq selection commutes
			if c == nil || cand.seq < c.seq {
				c = cand
			}
		}
		s.finishLocked(c.ev, Outcome{}, fmt.Errorf("%q: %w", c.label, ErrClosed), &fired)
	}
	s.bumpLocked()
	s.mu.Unlock()
	s.fire(fired)
}
