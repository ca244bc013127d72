package vm_test

import (
	"math/rand"
	"reflect"
	"testing"

	"maligo/internal/vm"
)

// recObserver records replayed callbacks verbatim.
type recObserver struct {
	events []traceEvent
}

type traceEvent struct {
	space  int
	addr   int64
	size   int
	write  bool
	atomic bool
}

func (r *recObserver) OnAccess(space int, addr int64, size int, write bool) {
	r.events = append(r.events, traceEvent{space: space, addr: addr, size: size, write: write})
}

func (r *recObserver) OnAtomic(space int, addr int64, size int) {
	r.events = append(r.events, traceEvent{space: space, addr: addr, size: size, atomic: true})
}

// TestTraceReplayPreservesOrder records a mixed access sequence and
// checks the replay delivers the same events in the same order.
func TestTraceReplayPreservesOrder(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	tr := vm.NewTrace()
	defer tr.Release()

	var want []traceEvent
	for i := 0; i < 10000; i++ {
		ev := traceEvent{
			space: rnd.Intn(4),
			addr:  rnd.Int63n(1 << 40),
			size:  1 << rnd.Intn(5),
		}
		switch rnd.Intn(3) {
		case 0:
			tr.OnAccess(ev.space, ev.addr, ev.size, false)
		case 1:
			ev.write = true
			tr.OnAccess(ev.space, ev.addr, ev.size, true)
		case 2:
			ev.atomic = true
			tr.OnAtomic(ev.space, ev.addr, ev.size)
		}
		want = append(want, ev)
	}
	if tr.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(want))
	}

	var got recObserver
	tr.Replay(&got)
	if len(got.events) != len(want) {
		t.Fatalf("replayed %d events, want %d", len(got.events), len(want))
	}
	for i := range want {
		if got.events[i] != want[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got.events[i], want[i])
		}
	}
}

// TestTraceRecycling checks a released trace comes back empty.
func TestTraceRecycling(t *testing.T) {
	tr := vm.NewTrace()
	tr.OnAccess(0, 64, 4, true)
	tr.Release()
	tr2 := vm.NewTrace()
	defer tr2.Release()
	if tr2.Len() != 0 {
		t.Fatalf("recycled trace has %d records, want 0", tr2.Len())
	}
}

// randomProfile fills every numeric field of a Profile with random
// values via reflection, so the permutation test cannot silently miss
// fields added later.
func randomProfile(rnd *rand.Rand) *vm.Profile {
	p := &vm.Profile{}
	v := reflect.ValueOf(p).Elem()
	fillRandom(v, rnd)
	return p
}

func fillRandom(v reflect.Value, rnd *rand.Rand) {
	switch v.Kind() {
	case reflect.Uint64:
		v.SetUint(uint64(rnd.Intn(1 << 20)))
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			fillRandom(v.Index(i), rnd)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillRandom(v.Field(i), rnd)
		}
	}
}

// TestProfileAddPermutationInvariant checks that merging per-group
// profiles is order-independent — the property the parallel engine
// relies on to report identical totals for any execution order.
func TestProfileAddPermutationInvariant(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rnd.Intn(32)
		parts := make([]*vm.Profile, n)
		for i := range parts {
			parts[i] = randomProfile(rnd)
		}

		var inOrder vm.Profile
		for _, p := range parts {
			inOrder.Add(p)
		}

		perm := rnd.Perm(n)
		var shuffled vm.Profile
		for _, i := range perm {
			shuffled.Add(parts[i])
		}

		if inOrder != shuffled {
			t.Fatalf("trial %d: merge order changed totals:\n in-order: %+v\n shuffled: %+v",
				trial, inOrder, shuffled)
		}
	}
}

// FuzzProfileAddCommutes fuzzes the two-profile case: a.Add(b) must
// equal b.Add(a).
func FuzzProfileAddCommutes(f *testing.F) {
	f.Add(int64(1), int64(2))
	f.Add(int64(-7), int64(1<<40))
	f.Fuzz(func(t *testing.T, seedA, seedB int64) {
		a1 := randomProfile(rand.New(rand.NewSource(seedA)))
		b1 := randomProfile(rand.New(rand.NewSource(seedB)))
		a2 := *a1
		b2 := *b1
		a1.Add(b1)  // a+b
		b2.Add(&a2) // b+a
		if *a1 != b2 {
			t.Fatalf("Add not commutative:\n a+b: %+v\n b+a: %+v", *a1, b2)
		}
	})
}

// recordRandom records n random events into tr and returns them.
func recordRandom(tr *vm.Trace, n int, seed int64) []traceEvent {
	rnd := rand.New(rand.NewSource(seed))
	want := make([]traceEvent, 0, n)
	for i := 0; i < n; i++ {
		ev := traceEvent{space: rnd.Intn(4), addr: rnd.Int63n(1 << 40), size: 1 << rnd.Intn(5)}
		if rnd.Intn(4) == 0 {
			ev.atomic = true
			tr.OnAtomic(ev.space, ev.addr, ev.size)
		} else {
			ev.write = rnd.Intn(2) == 0
			tr.OnAccess(ev.space, ev.addr, ev.size, ev.write)
		}
		want = append(want, ev)
	}
	return want
}

// TestTraceStreamingReplay records several chunks' worth of events on
// one goroutine while another replays them as the trace announces
// itself, and checks the replay is complete and in program order.
func TestTraceStreamingReplay(t *testing.T) {
	const n = 5*8192 + 17
	tr := vm.NewTrace()
	published := make(chan *vm.Trace, 1)
	tr.Stream(func() { published <- tr })

	wantCh := make(chan []traceEvent, 1)
	go func() {
		want := recordRandom(tr, n, 3)
		if !tr.Finish() {
			t.Error("trace did not stream after filling a chunk")
		}
		wantCh <- want
	}()

	got := &recObserver{}
	(<-published).Replay(got)
	want := <-wantCh
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	if !reflect.DeepEqual(got.events, want) {
		t.Fatalf("streamed replay differs from the recording (%d vs %d events)", len(got.events), len(want))
	}
	tr.Release()
}

// TestTraceStreamingRelease checks Release on a streamed trace nobody
// replays waits for the recorder to finish instead of recycling chunks
// still being written.
func TestTraceStreamingRelease(t *testing.T) {
	tr := vm.NewTrace()
	published := make(chan *vm.Trace, 1)
	tr.Stream(func() { published <- tr })
	done := make(chan struct{})
	go func() {
		recordRandom(tr, 3*8192, 4)
		// Closed before Finish: Release may return as soon as Finish
		// has run, before anything after it on this goroutine.
		close(done)
		tr.Finish()
	}()
	(<-published).Release()
	select {
	case <-done:
	default:
		t.Fatal("Release returned before the recorder finished")
	}
}

// TestTraceWholeHandOff checks the two cases that never announce: a
// group that stays within one chunk, and a detail-mode trace, which
// race observers scan as a whole.
func TestTraceWholeHandOff(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int
		detail bool
	}{
		{"one-chunk", 8192, false},
		{"detail", 3 * 8192, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := vm.NewTrace()
			defer tr.Release()
			if tc.detail {
				tr.EnableDetail()
			}
			tr.Stream(func() { t.Error("trace announced") })
			want := recordRandom(tr, tc.n, 5)
			if tr.Finish() {
				t.Fatal("trace streams")
			}
			got := &recObserver{}
			tr.Replay(got)
			if !reflect.DeepEqual(got.events, want) {
				t.Fatalf("replay differs from the recording (%d vs %d events)", len(got.events), len(want))
			}
		})
	}
}

// TestTraceStoreReplaysRetainedTraces records one streamed and several
// whole retained traces, keeps them in a TraceStore and checks that
// each replays its recording exactly, any number of times, with the
// small tails packed into shared chunks.
func TestTraceStoreReplaysRetainedTraces(t *testing.T) {
	var store vm.TraceStore
	var traces []*vm.Trace
	var wants [][]traceEvent

	streamed := vm.NewTrace()
	streamed.Retain()
	published := make(chan *vm.Trace, 1)
	streamed.Stream(func() { published <- streamed })
	wantCh := make(chan []traceEvent, 1)
	go func() {
		want := recordRandom(streamed, 3*8192+5, 7)
		streamed.Finish()
		wantCh <- want
	}()
	first := &recObserver{}
	(<-published).Replay(first)
	streamed.Release() // a retained trace survives the consumer's Release
	want := <-wantCh
	if !reflect.DeepEqual(first.events, want) {
		t.Fatalf("streamed replay differs from the recording")
	}
	store.Keep(streamed)
	traces, wants = append(traces, streamed), append(wants, want)

	for i, n := range []int{10, 3000, 6000, 1} {
		tr := vm.NewTrace()
		tr.Retain()
		wants = append(wants, recordRandom(tr, n, int64(i)))
		store.Keep(tr)
		traces = append(traces, tr)
	}
	// Three full chunks of the streamed trace, then its tail and the
	// first two small traces in one pack, the last two in a second.
	if got := store.Chunks(); got != 5 {
		t.Errorf("Chunks = %d, want 5", got)
	}
	for pass := 0; pass < 2; pass++ {
		for i, tr := range traces {
			got := &recObserver{}
			tr.Replay(got)
			tr.Release()
			if tr.Len() != len(wants[i]) || !reflect.DeepEqual(got.events, wants[i]) {
				t.Fatalf("pass %d trace %d: replay differs from the recording", pass, i)
			}
		}
	}
	store.Free()
	if store.Chunks() != 0 {
		t.Errorf("Chunks after Free = %d", store.Chunks())
	}
}
