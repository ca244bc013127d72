package sched_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"maligo/internal/sched"
)

// cmd builds a command with a fixed simulated duration that appends
// its label to ran (executor runs one body at a time, so no locking).
func cmd(s *sched.Scheduler, label string, seconds float64, ran *[]string) *sched.Command {
	return s.NewCommand(label, func() (sched.Outcome, error) {
		if ran != nil {
			*ran = append(*ran, label)
		}
		return sched.Outcome{Seconds: seconds}, nil
	})
}

// TestInOrderChainStamps checks a QueuedAfter chain reproduces the
// synchronous queue's tiling: QUEUED == SUBMIT == previous END.
func TestInOrderChainStamps(t *testing.T) {
	s := sched.New()
	defer s.Close()
	var ran []string
	a := cmd(s, "a", 1, &ran)
	b := cmd(s, "b", 2, &ran).QueuedAfter(a.Event()).After(a.Event())
	c := cmd(s, "c", 3, &ran).QueuedAfter(b.Event()).After(b.Event())
	if err := s.Submit(a, b, c); err != nil {
		t.Fatal(err)
	}
	if err := c.Event().Wait(); err != nil {
		t.Fatal(err)
	}
	wantQ := []float64{0, 1, 3}
	wantE := []float64{1, 3, 6}
	for i, ev := range []*sched.Event{a.Event(), b.Event(), c.Event()} {
		q, sub, st, end := ev.Stamps()
		if q != wantQ[i] || sub != q || st != q || end != wantE[i] {
			t.Errorf("%s: stamps %g/%g/%g/%g, want queued %g end %g",
				ev.Label(), q, sub, st, end, wantQ[i], wantE[i])
		}
	}
	if fmt.Sprint(ran) != "[a b c]" {
		t.Errorf("execution order %v", ran)
	}
}

// TestOutOfOrderOverlap checks independent commands overlap in
// simulated time: both submit at t=0 regardless of execution order.
func TestOutOfOrderOverlap(t *testing.T) {
	s := sched.New()
	defer s.Close()
	a := cmd(s, "a", 5, nil)
	b := cmd(s, "b", 3, nil)
	join := s.NewCommand("join", nil).After(a.Event(), b.Event())
	if err := s.Submit(a, b, join); err != nil {
		t.Fatal(err)
	}
	if err := join.Event().Wait(); err != nil {
		t.Fatal(err)
	}
	for _, ev := range []*sched.Event{a.Event(), b.Event()} {
		if _, sub, _, _ := ev.Stamps(); sub != 0 {
			t.Errorf("%s submitted at %g, want 0 (overlap window)", ev.Label(), sub)
		}
	}
	// The join waits for the slower branch: 0-duration marker at t=5.
	if _, sub, _, end := join.Event().Stamps(); sub != 5 || end != 5 {
		t.Errorf("join stamps submit %g end %g, want 5/5", sub, end)
	}
}

// TestDispatchClamp checks the SUBMIT→START window is clamped into
// [0, Seconds] exactly like the synchronous queue's record().
func TestDispatchClamp(t *testing.T) {
	s := sched.New()
	defer s.Close()
	c := s.NewCommand("c", func() (sched.Outcome, error) {
		return sched.Outcome{Seconds: 2, Dispatch: 5}, nil
	})
	if err := s.Submit(c); err != nil {
		t.Fatal(err)
	}
	if err := c.Event().Wait(); err != nil {
		t.Fatal(err)
	}
	if _, sub, st, end := c.Event().Stamps(); st != sub+2 || end != sub+2 {
		t.Errorf("clamped stamps submit %g start %g end %g", sub, st, end)
	}
}

// TestTypedErrors locks down the queue-contract error taxonomy.
func TestTypedErrors(t *testing.T) {
	s := sched.New()
	defer s.Close()
	other := sched.New()
	defer other.Close()

	t.Run("cycle", func(t *testing.T) {
		a := cmd(s, "a", 1, nil)
		b := cmd(s, "b", 1, nil)
		a.After(b.Event())
		b.After(a.Event())
		if err := s.Submit(a, b); !errors.Is(err, sched.ErrCycle) {
			t.Fatalf("Submit = %v, want ErrCycle", err)
		}
	})
	t.Run("self-cycle", func(t *testing.T) {
		a := cmd(s, "a", 1, nil)
		a.After(a.Event())
		if err := s.Submit(a); !errors.Is(err, sched.ErrCycle) {
			t.Fatalf("Submit = %v, want ErrCycle", err)
		}
	})
	t.Run("double-wait", func(t *testing.T) {
		a := cmd(s, "a", 1, nil)
		if err := s.Submit(a); err != nil {
			t.Fatal(err)
		}
		b := cmd(s, "b", 1, nil).After(a.Event(), a.Event())
		if err := s.Submit(b); !errors.Is(err, sched.ErrDoubleWait) {
			t.Fatalf("Submit = %v, want ErrDoubleWait", err)
		}
	})
	t.Run("orphan", func(t *testing.T) {
		never := cmd(s, "never-submitted", 1, nil)
		b := cmd(s, "b", 1, nil).After(never.Event())
		if err := s.Submit(b); !errors.Is(err, sched.ErrOrphanEvent) {
			t.Fatalf("Submit = %v, want ErrOrphanEvent", err)
		}
	})
	t.Run("foreign", func(t *testing.T) {
		fa := cmd(other, "fa", 1, nil)
		if err := other.Submit(fa); err != nil {
			t.Fatal(err)
		}
		b := cmd(s, "b", 1, nil).After(fa.Event())
		if err := s.Submit(b); !errors.Is(err, sched.ErrForeignEvent) {
			t.Fatalf("Submit = %v, want ErrForeignEvent", err)
		}
	})
	t.Run("not-user-event", func(t *testing.T) {
		a := cmd(s, "a", 1, nil)
		if err := s.Submit(a); err != nil {
			t.Fatal(err)
		}
		if err := a.Event().SetComplete(); !errors.Is(err, sched.ErrNotUserEvent) {
			t.Fatalf("SetComplete = %v, want ErrNotUserEvent", err)
		}
	})
	t.Run("closed", func(t *testing.T) {
		dead := sched.New()
		dead.Close()
		if err := dead.Submit(cmd(dead, "late", 1, nil)); !errors.Is(err, sched.ErrClosed) {
			t.Fatalf("Submit = %v, want ErrClosed", err)
		}
	})
}

// TestUserEventGate checks user events gate execution, complete at
// simulated time zero, and reject double signalling.
func TestUserEventGate(t *testing.T) {
	s := sched.New()
	defer s.Close()
	u := s.NewUserEvent("gate")
	var ran atomic.Bool
	c := s.NewCommand("gated", func() (sched.Outcome, error) {
		ran.Store(true)
		return sched.Outcome{Seconds: 1}, nil
	}).After(u)
	if err := s.Submit(c); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if ran.Load() {
		t.Fatal("gated command ran before the user event was signalled")
	}
	if got := c.Event().Status(); got != sched.StatusQueued {
		t.Fatalf("gated status = %v, want QUEUED", got)
	}
	if err := u.SetComplete(); err != nil {
		t.Fatal(err)
	}
	if err := c.Event().Wait(); err != nil {
		t.Fatal(err)
	}
	if !ran.Load() {
		t.Fatal("gated command never ran after signal")
	}
	// User events complete at simulated time zero: the gated command's
	// stamps are independent of when the host called SetComplete.
	if q, sub, _, end := c.Event().Stamps(); q != 0 || sub != 0 || end != 1 {
		t.Errorf("gated stamps queued %g submit %g end %g, want 0/0/1", q, sub, end)
	}
	if err := u.SetComplete(); !errors.Is(err, sched.ErrAlreadyComplete) {
		t.Fatalf("second SetComplete = %v, want ErrAlreadyComplete", err)
	}

	// SetError cascades like a failed command.
	bad := s.NewUserEvent("bad-gate")
	dep := cmd(s, "dep", 1, nil).After(bad)
	if err := s.Submit(dep); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("host aborted")
	if err := bad.SetError(boom); err != nil {
		t.Fatal(err)
	}
	err := dep.Event().Wait()
	if !errors.Is(err, sched.ErrDepFailed) || !errors.Is(err, boom) {
		t.Fatalf("dep err = %v, want ErrDepFailed wrapping host error", err)
	}
}

// TestStallSurfacesOrphanError checks WaitEvent refuses to deadlock on
// an unsignalled user event.
func TestStallSurfacesOrphanError(t *testing.T) {
	s := sched.New()
	defer s.Close()
	u := s.NewUserEvent("never")
	c := cmd(s, "blocked", 1, nil).After(u)
	if err := s.Submit(c); err != nil {
		t.Fatal(err)
	}
	err := s.WaitEvent(context.Background(), c.Event())
	if !errors.Is(err, sched.ErrOrphanEvent) {
		t.Fatalf("WaitEvent = %v, want ErrOrphanEvent", err)
	}
	// The command is still pending: signalling the gate rescues it.
	if err := u.SetComplete(); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitEvent(context.Background(), c.Event()); err != nil {
		t.Fatalf("WaitEvent after signal = %v", err)
	}
}

// TestWaitEventCtxCancel checks context cancellation unblocks waits.
func TestWaitEventCtxCancel(t *testing.T) {
	s := sched.New()
	defer s.Close()
	slow := s.NewCommand("slow", func() (sched.Outcome, error) {
		time.Sleep(50 * time.Millisecond)
		return sched.Outcome{Seconds: 1}, nil
	})
	c := cmd(s, "later", 1, nil).After(slow.Event())
	if err := s.Submit(slow, c); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.WaitEvent(ctx, c.Event()); !errors.Is(err, context.Canceled) {
		t.Fatalf("WaitEvent = %v, want context.Canceled", err)
	}
	if err := s.WaitEvent(context.Background(), c.Event()); err != nil {
		t.Fatal(err)
	}
}

// TestFailureCascade checks a body error fails the event and cascades
// to dependents as ErrDepFailed while preserving the root cause.
func TestFailureCascade(t *testing.T) {
	s := sched.New()
	defer s.Close()
	boom := errors.New("CL_OUT_OF_RESOURCES")
	bad := s.NewCommand("bad", func() (sched.Outcome, error) { return sched.Outcome{}, boom })
	var ran atomic.Bool
	dep := s.NewCommand("dep", func() (sched.Outcome, error) {
		ran.Store(true)
		return sched.Outcome{Seconds: 1}, nil
	}).After(bad.Event())
	if err := s.Submit(bad, dep); err != nil {
		t.Fatal(err)
	}
	if err := bad.Event().Wait(); !errors.Is(err, boom) {
		t.Fatalf("bad err = %v", err)
	}
	err := dep.Event().Wait()
	if !errors.Is(err, sched.ErrDepFailed) || !errors.Is(err, boom) {
		t.Fatalf("dep err = %v, want ErrDepFailed wrapping root cause", err)
	}
	if ran.Load() {
		t.Error("dependent body ran despite failed dependency")
	}
	if dep.Event().Status() != sched.StatusFailed {
		t.Errorf("dep status = %v", dep.Event().Status())
	}
}

// TestInOrderFailureOrdersOnly checks the two failure rules of an
// in-order chain: a failed predecessor is not passed on (its successor
// runs and queues at the failed command's QUEUED), and a command whose
// wait list fails still resolves only after its predecessor.
func TestInOrderFailureOrdersOnly(t *testing.T) {
	s := sched.New()
	defer s.Close()
	boom := errors.New("boom")
	u := s.NewUserEvent("gate")
	a := cmd(s, "a", 2, nil).After(u)
	x := s.NewCommand("x", func() (sched.Outcome, error) { return sched.Outcome{}, boom })
	b := cmd(s, "b", 1, nil).QueuedAfter(a.Event()).After(x.Event())
	var ran []string
	c := cmd(s, "c", 3, &ran).QueuedAfter(b.Event())
	if err := s.Submit(a, x, b, c); err != nil {
		t.Fatal(err)
	}
	if err := x.Event().Wait(); !errors.Is(err, boom) {
		t.Fatalf("x err = %v", err)
	}
	if b.Event().Complete() {
		t.Fatal("b resolved before its in-order predecessor a")
	}
	if err := u.SetComplete(); err != nil {
		t.Fatal(err)
	}
	if err := b.Event().Wait(); !errors.Is(err, sched.ErrDepFailed) || !errors.Is(err, boom) {
		t.Fatalf("b err = %v, want ErrDepFailed wrapping boom", err)
	}
	if err := c.Event().Wait(); err != nil {
		t.Fatalf("c after failed in-order predecessor: %v", err)
	}
	if len(ran) != 1 || ran[0] != "c" {
		t.Errorf("ran %v, want [c]", ran)
	}
	_, _, _, aEnd := a.Event().Stamps()
	if q, _, _, end := c.Event().Stamps(); q != aEnd || end != aEnd+3 {
		t.Errorf("c queued %g end %g, want %g and %g (a's END, b takes no time)", q, end, aEnd, aEnd+3)
	}
}

// TestCloseFailsPending checks Close unblocks commands stuck on
// unsignalled user events with ErrClosed, and is idempotent.
func TestCloseFailsPending(t *testing.T) {
	s := sched.New()
	u := s.NewUserEvent("never")
	c := cmd(s, "stuck", 1, nil).After(u)
	if err := s.Submit(c); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close()
	if err := c.Event().Wait(); !errors.Is(err, sched.ErrClosed) {
		t.Fatalf("stuck err = %v, want ErrClosed", err)
	}
	if err := u.SetComplete(); err != nil {
		t.Fatalf("signalling a user event after Close must stay safe: %v", err)
	}
}

// dagSpec is the shared random-DAG model of the property test and the
// fuzzer: command i owns 8 bytes of memory at i*8, reads the regions
// of its dependencies and writes a digest of them plus its own seed.
type dagSpec struct {
	n       int
	deps    [][]int // wait-list edges, all pointing at earlier commands
	queue   []int   // queue id; -1 = out-of-order (no QueuedAfter)
	seconds []float64
	disp    []float64
	seed    []byte
	gated   []bool // also wait on a shared user event (signalled post-submit)
	fail    []bool
}

// oracle executes the spec serially in submit order — a valid
// topological order — and returns memory plus per-command stamps.
// Failed commands (and their transitive wait-list dependents) neither
// run nor carry stamps; ok marks the commands that completed. An
// in-order predecessor's failure is not passed on: its successor
// queues at the failed command's QUEUED.
func (d *dagSpec) oracle() (mem []byte, stamps [][4]float64, ok []bool) {
	mem = make([]byte, d.n*8)
	stamps = make([][4]float64, d.n)
	ok = make([]bool, d.n)
	lastInQueue := make(map[int]int)
	prevOf := make([]int, d.n)
	for i := range prevOf {
		prevOf[i] = -1
	}
	for i := 0; i < d.n; i++ {
		if q := d.queue[i]; q >= 0 {
			if p, seen := lastInQueue[q]; seen {
				prevOf[i] = p
			}
			lastInQueue[q] = i
		}
	}
	tail := make([]float64, d.n) // where an in-order successor queues
	for i := 0; i < d.n; i++ {
		queued := 0.0
		if p := prevOf[i]; p >= 0 {
			queued = tail[p]
		}
		tail[i] = queued
		good := !d.fail[i]
		for _, dep := range d.deps[i] {
			if !ok[dep] {
				good = false
			}
		}
		if !good {
			continue
		}
		ok[i] = true
		submitted := queued
		for _, dep := range d.deps[i] {
			if e := stamps[dep][3]; e > submitted {
				submitted = e
			}
		}
		disp := d.disp[i]
		if disp < 0 {
			disp = 0
		}
		if disp > d.seconds[i] {
			disp = d.seconds[i]
		}
		stamps[i] = [4]float64{queued, submitted, submitted + disp, submitted + d.seconds[i]}
		tail[i] = stamps[i][3]
		d.writeRegion(mem, i)
	}
	return mem, stamps, ok
}

// writeRegion computes command i's digest over its deps' regions.
func (d *dagSpec) writeRegion(mem []byte, i int) {
	var acc byte = d.seed[i]
	for _, dep := range d.deps[i] {
		for b := 0; b < 8; b++ {
			acc ^= mem[dep*8+b] + byte(b)
		}
	}
	for b := 0; b < 8; b++ {
		mem[i*8+b] = acc + byte(b)
	}
}

// run executes the spec on a real scheduler with the given chooser and
// returns memory, stamps and completion flags.
func (d *dagSpec) run(t testing.TB, chooser func([]int64) int) (mem []byte, stamps [][4]float64, ok []bool) {
	var opts []sched.Option
	if chooser != nil {
		opts = append(opts, sched.WithChooser(chooser))
	}
	s := sched.New(opts...)
	defer s.Close()
	mem = make([]byte, d.n*8)
	cmds := make([]*sched.Command, d.n)
	prevInQueue := make(map[int]*sched.Event)
	var gate *sched.Event
	for _, g := range d.gated {
		if g {
			gate = s.NewUserEvent("gate")
			break
		}
	}
	for i := 0; i < d.n; i++ {
		i := i
		var run func() (sched.Outcome, error)
		if d.fail[i] {
			run = func() (sched.Outcome, error) {
				return sched.Outcome{}, fmt.Errorf("injected failure in %d", i)
			}
		} else {
			run = func() (sched.Outcome, error) {
				d.writeRegion(mem, i)
				return sched.Outcome{Seconds: d.seconds[i], Dispatch: d.disp[i]}, nil
			}
		}
		c := s.NewCommand(fmt.Sprintf("cmd-%d", i), run)
		for _, dep := range d.deps[i] {
			c.After(cmds[dep].Event())
		}
		if d.gated[i] {
			c.After(gate)
		}
		if q := d.queue[i]; q >= 0 {
			// QueuedAfter is an implicit dependency; no After needed
			// (and a random wait-list edge may already name prev).
			if prev := prevInQueue[q]; prev != nil {
				c.QueuedAfter(prev)
			}
			prevInQueue[q] = c.Event()
		}
		cmds[i] = c
	}
	if err := s.Submit(cmds...); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if gate != nil {
		if err := gate.SetComplete(); err != nil {
			t.Fatalf("SetComplete: %v", err)
		}
	}
	stamps = make([][4]float64, d.n)
	ok = make([]bool, d.n)
	for i, c := range cmds {
		err := c.Event().Wait()
		ok[i] = err == nil
		if err == nil {
			q, sub, st, end := c.Event().Stamps()
			stamps[i] = [4]float64{q, sub, st, end}
		}
	}
	return mem, stamps, ok
}

// runFuzz runs the spec with a scheduling policy derived from a fuzz
// byte: 0 keeps the default lowest-sequence chooser, anything else
// installs a deterministic rotating adversary.
func (d *dagSpec) runFuzz(t testing.TB, policy int) (mem []byte, stamps [][4]float64, ok []bool) {
	if policy%5 == 0 {
		return d.run(t, nil)
	}
	i := policy
	return d.run(t, func(seqs []int64) int {
		i += policy + 1
		return ((i % len(seqs)) + len(seqs)) % len(seqs)
	})
}

// genSpec derives a random DAG from an rng.
func genSpec(rng *rand.Rand, n int) *dagSpec {
	d := &dagSpec{n: n}
	d.deps = make([][]int, n)
	d.queue = make([]int, n)
	d.seconds = make([]float64, n)
	d.disp = make([]float64, n)
	d.seed = make([]byte, n)
	d.gated = make([]bool, n)
	d.fail = make([]bool, n)
	for i := 0; i < n; i++ {
		d.queue[i] = rng.Intn(4) - 1 // -1..2: one OOO pool, three in-order queues
		d.seconds[i] = float64(rng.Intn(32)) / 8
		d.disp[i] = float64(rng.Intn(16)) / 16
		d.seed[i] = byte(rng.Intn(256))
		d.gated[i] = rng.Intn(5) == 0
		d.fail[i] = rng.Intn(12) == 0
		for dep := 0; dep < i; dep++ {
			if rng.Intn(4) == 0 {
				d.deps[i] = append(d.deps[i], dep)
			}
		}
	}
	return d
}

// TestTopologicalOrderInvariance is the property test of the queue
// contract: for random DAGs, every topological execution order — the
// default lowest-sequence policy and a range of adversarial choosers —
// produces byte-identical memory and bit-identical event stamps,
// matching the serial oracle.
func TestTopologicalOrderInvariance(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1))
		d := genSpec(rng, 3+rng.Intn(14))
		wantMem, wantStamps, wantOK := d.oracle()

		choosers := []struct {
			name string
			pick func([]int64) int
		}{
			{"lowest-seq", nil},
			{"highest-seq", func(seqs []int64) int { return len(seqs) - 1 }},
			{"middle", func(seqs []int64) int { return len(seqs) / 2 }},
			{"rotating", func() func([]int64) int {
				i := 0
				return func(seqs []int64) int { i++; return i % len(seqs) }
			}()},
		}
		for _, ch := range choosers {
			mem, stamps, ok := d.run(t, ch.pick)
			for i := 0; i < d.n; i++ {
				if ok[i] != wantOK[i] {
					t.Fatalf("trial %d chooser %s: cmd %d ok=%v, oracle %v",
						trial, ch.name, i, ok[i], wantOK[i])
				}
				if ok[i] && stamps[i] != wantStamps[i] {
					t.Fatalf("trial %d chooser %s: cmd %d stamps %v, oracle %v",
						trial, ch.name, i, stamps[i], wantStamps[i])
				}
			}
			for b := range mem {
				if mem[b] != wantMem[b] {
					t.Fatalf("trial %d chooser %s: memory[%d] = %d, oracle %d",
						trial, ch.name, b, mem[b], wantMem[b])
				}
			}
		}
	}
}

// TestFinishedChainReleasesBodies checks that a finished command keeps
// nothing its body or completion callback captured alive: holding the
// last event of a long in-order chain (as a queue's tail does) must
// not retain the chain's earlier work.
func TestFinishedChainReleasesBodies(t *testing.T) {
	s := sched.New()
	defer s.Close()
	const n = 8
	var freed atomic.Int32
	var last *sched.Event
	for i := 0; i < n; i++ {
		payload := new([4096]byte)
		runtime.SetFinalizer(payload, func(*[4096]byte) { freed.Add(1) })
		c := s.NewCommand(fmt.Sprint(i), func() (sched.Outcome, error) {
			payload[0]++
			return sched.Outcome{Seconds: 1}, nil
		})
		c.OnComplete(func(*sched.Event) { payload[1]++ })
		if last != nil {
			c.QueuedAfter(last)
		}
		if err := s.Submit(c); err != nil {
			t.Fatal(err)
		}
		last = c.Event()
	}
	if err := last.Wait(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); freed.Load() < n && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := freed.Load(); got != n {
		t.Errorf("%d of %d finished command payloads still reachable from the chain's last event", n-got, n)
	}
	if _, _, _, end := last.Stamps(); end != n {
		t.Errorf("last event ends at %g, want %d", end, n)
	}
}
