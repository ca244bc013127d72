package vm_test

import (
	"math/rand"
	"testing"

	"maligo/internal/clc/ir"
	"maligo/internal/mem"
	"maligo/internal/vm"
)

// foldAccess is one event of a generated stream. An atomic is recorded
// as the VM records it: a write access followed by an atomic record.
type foldAccess struct {
	space  int
	off    int64
	size   int
	write  bool
	atomic bool
}

func (a foldAccess) straddles() bool { return a.off>>6 != (a.off+int64(a.size)-1)>>6 }

// foldStream generates n events that walk a cursor through a 16 KiB
// window per space, so runs of same-line accesses (aligned, unaligned,
// overlapping and abutting) alternate with jumps, block-straddling
// accesses and atomics.
func foldStream(rnd *rand.Rand, n int) []foldAccess {
	spaces := []int{ir.SpaceGlobal, ir.SpaceLocal, ir.SpacePrivate}
	const window = 16 << 10
	acc := make([]foldAccess, 0, n)
	space, cur := ir.SpaceGlobal, int64(0)
	write := false
	for len(acc) < n {
		switch r := rnd.Intn(20); {
		case r == 0:
			space = spaces[rnd.Intn(len(spaces))]
		case r == 1:
			write = !write
		case r <= 3:
			cur = rnd.Int63n(window - 64)
		}
		size := 1 << rnd.Intn(5)
		off := cur
		switch rnd.Intn(4) {
		case 0: // aligned to its size
			off &^= int64(size - 1)
		case 1: // abut or overlap the cursor from the left
			off -= int64(rnd.Intn(size + 1))
		case 2: // straddle the next 64-byte boundary
			off = cur | 63
			size = 2 + rnd.Intn(8)
		}
		off = max(off, 0)
		a := foldAccess{space: space, off: off, size: size, write: write}
		if rnd.Intn(10) == 0 {
			a.write, a.atomic = true, true
		}
		acc = append(acc, a)
		if cur = off + int64(rnd.Intn(size+1)); cur >= window-64 {
			cur = 0
		}
	}
	return acc
}

func recordStream(tr *vm.Trace, acc []foldAccess) {
	for _, a := range acc {
		addr := ir.EncodeAddr(a.space, a.off)
		tr.OnAccess(a.space, addr, a.size, a.write)
		if a.atomic {
			tr.OnAtomic(a.space, addr, a.size)
		}
	}
}

// cacheObserver replays a trace into a cache model one access at a
// time; bulkCacheObserver adds the folded-repeat path, as the device
// models do.
type cacheObserver struct{ c *mem.Cache }

func (o *cacheObserver) OnAccess(space int, addr int64, size int, write bool) {
	_, off := ir.DecodeAddr(addr)
	o.c.Access(uint64(space)<<40+uint64(off), size, write)
}

func (o *cacheObserver) OnAtomic(space int, addr int64, size int) {}

type bulkCacheObserver struct{ cacheObserver }

func (o *bulkCacheObserver) OnRepeat(n int, write bool) { o.c.Repeat(n, write) }

// repeatLog records replay callbacks, repeats included.
type repeatLog struct {
	events []traceEvent
	reps   []int // reps[i]: OnRepeat count after events[i]
}

func (r *repeatLog) OnAccess(space int, addr int64, size int, write bool) {
	r.events = append(r.events, traceEvent{space: space, addr: addr, size: size, write: write})
	r.reps = append(r.reps, 0)
}

func (r *repeatLog) OnAtomic(space int, addr int64, size int) {
	r.events = append(r.events, traceEvent{space: space, addr: addr, size: size, atomic: true})
	r.reps = append(r.reps, 0)
}

func (r *repeatLog) OnRepeat(n int, write bool) { r.reps[len(r.reps)-1] += n }

// TestFoldedTraceMatchesPerAccess records random streams into a plain
// trace, which folds same-line runs, and a detail trace, which keeps
// one record per access, and checks the fold is invisible to every
// consumer: replay into twin caches (bulk and one by one), Len, the
// retained footprint, and that atomics and block-straddling accesses
// stay records of their own.
func TestFoldedTraceMatchesPerAccess(t *testing.T) {
	geoms := []mem.CacheConfig{
		{SizeBytes: 48 << 10, LineBytes: 64, Ways: 8}, // Mali-T604 L2, 96 sets
		{SizeBytes: 4 << 10, LineBytes: 128, Ways: 2},
	}
	const window = 16 << 10
	for seed := int64(1); seed <= 8; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		acc := foldStream(rnd, 3*8192+rnd.Intn(8192))
		events := 0
		for _, a := range acc {
			events++
			if a.atomic {
				events++
			}
		}

		plain, detail := vm.NewTrace(), vm.NewTrace()
		plain.Retain()
		detail.Retain()
		detail.EnableDetail()
		recordStream(plain, acc)
		recordStream(detail, acc)
		if plain.Len() != events || detail.Len() != events {
			t.Fatalf("seed %d: Len plain %d detail %d, want %d", seed, plain.Len(), detail.Len(), events)
		}

		// The detail trace keeps every access as recorded.
		var exact repeatLog
		detail.Replay(&exact)
		if len(exact.events) != events {
			t.Fatalf("seed %d: detail trace replayed %d records for %d events", seed, len(exact.events), events)
		}
		i := 0
		for _, a := range acc {
			addr := ir.EncodeAddr(a.space, a.off)
			want := traceEvent{space: a.space, addr: addr, size: a.size, write: a.write}
			if exact.events[i] != want || exact.reps[i] != 0 {
				t.Fatalf("seed %d: detail record %d is %+v (repeats %d), want %+v", seed, i, exact.events[i], exact.reps[i], want)
			}
			i++
			if a.atomic {
				i++
			}
		}

		var log repeatLog
		plain.Replay(&log)
		if len(log.events) >= events {
			t.Fatalf("seed %d: %d records for %d events, nothing folded", seed, len(log.events), events)
		}
		var atomics, straddles, gotAtomics, gotStraddles int
		for _, a := range acc {
			if a.atomic {
				atomics++
			}
			if a.straddles() {
				straddles++
			}
		}
		for i, ev := range log.events {
			if ev.atomic {
				gotAtomics++
				continue
			}
			_, off := ir.DecodeAddr(ev.addr)
			if (foldAccess{off: off, size: ev.size}).straddles() {
				if log.reps[i] != 0 {
					t.Fatalf("seed %d: straddling record %+v folded %d accesses", seed, ev, log.reps[i])
				}
				gotStraddles++
			}
		}
		if gotAtomics != atomics || gotStraddles != straddles {
			t.Fatalf("seed %d: replayed %d atomics and %d straddling records, want %d and %d",
				seed, gotAtomics, gotStraddles, atomics, straddles)
		}

		for _, cfg := range geoms {
			ref := &cacheObserver{mem.NewCache(cfg)}
			bulk := &bulkCacheObserver{cacheObserver{mem.NewCache(cfg)}}
			each := &cacheObserver{mem.NewCache(cfg)}
			detail.Replay(ref)
			plain.Replay(bulk)
			plain.Replay(each)
			// A probe stream after the replay compares the caches'
			// contents, dirty bits and LRU order, not just the counts.
			probe := rand.New(rand.NewSource(seed))
			for i := 0; i < 4096; i++ {
				space := ir.SpaceLocal * probe.Intn(2)
				addr := ir.EncodeAddr(space, probe.Int63n(window))
				for _, o := range []vm.AccessObserver{ref, bulk, each} {
					o.OnAccess(space, addr, 4, i%3 == 0)
				}
			}
			want := ref.c.Stats()
			if got := bulk.c.Stats(); got != want {
				t.Fatalf("seed %d %+v: bulk replay stats %+v, per-access %+v", seed, cfg, got, want)
			}
			if got := each.c.Stats(); got != want {
				t.Fatalf("seed %d %+v: one-by-one replay stats %+v, per-access %+v", seed, cfg, got, want)
			}
		}

		words := (window + 63) / 64
		wantR, wantW := make([]uint64, words), make([]uint64, words)
		for _, a := range acc {
			if a.space != ir.SpaceGlobal {
				continue
			}
			for b := a.off; b < a.off+int64(a.size); b++ {
				if a.write {
					wantW[b/64] |= 1 << (b % 64)
				}
				if !a.write || a.atomic {
					wantR[b/64] |= 1 << (b % 64)
				}
			}
		}
		for _, tr := range []*vm.Trace{plain, detail} {
			var store vm.TraceStore
			store.Keep(tr)
			gotR, gotW := make([]uint64, words), make([]uint64, words)
			if !store.Footprint(0, window, gotR, gotW) {
				t.Fatalf("seed %d: footprint out of range", seed)
			}
			for i := range wantR {
				if gotR[i] != wantR[i] || gotW[i] != wantW[i] {
					t.Fatalf("seed %d detail=%v: footprint word %d read %#x write %#x, want %#x %#x",
						seed, tr.Detailed(), i, gotR[i], gotW[i], wantR[i], wantW[i])
				}
			}
			store.Free()
		}
	}
}

// TestFoldedTraceSplitsLongRuns checks a same-line run longer than a
// record's 16-bit repeat count continues in a new record.
func TestFoldedTraceSplitsLongRuns(t *testing.T) {
	const n = 70000
	tr := vm.NewTrace()
	defer tr.Release()
	addr := ir.EncodeAddr(ir.SpaceGlobal, 128)
	for i := 0; i < n; i++ {
		tr.OnAccess(ir.SpaceGlobal, addr, 4, true)
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	var log repeatLog
	tr.Replay(&log)
	if len(log.events) != 2 || log.reps[0] != 65535 || log.reps[1] != n-65536-1 {
		t.Fatalf("replayed %d records with repeats %v, want 2 with [65535 %d]", len(log.events), log.reps, n-65536-1)
	}
	want := traceEvent{addr: addr, size: 4, write: true}
	for _, ev := range log.events {
		if ev != want {
			t.Fatalf("record %+v, want %+v", ev, want)
		}
	}
}
