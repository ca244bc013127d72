package vm

import (
	"math"
	"sync"
)

// traceRec is one recorded memory event, or in a non-detail trace a
// run of consecutive same-line reads or writes folded into one record:
// rep counts the accesses after the first, and [addr, addr+size) is
// the union of their byte ranges, which lies within one 64-byte block
// (foldShift). Records are 16 bytes, rep included, so a work-group's
// trace stays compact even for memory-heavy kernels.
type traceRec struct {
	addr  int64
	size  uint16
	line  uint16 // source line of the access (detail mode, else 0)
	space uint8
	kind  uint8
	rep   uint16 // accesses folded into this record after the first
}

// foldShift sets the 64-byte block consecutive accesses must share to
// fold into one record. Cache lines are a power of two of at least
// that size (platform.SoC.Validate), so a folded record touches
// exactly the one line each of its accesses touched.
const foldShift = 6

// noBlock is no block number: tagged addresses shifted by foldShift
// never reach it.
const noBlock = math.MinInt64

// Record kinds.
const (
	recRead uint8 = iota
	recWrite
	recAtomic
	// recCtx marks a work-item/phase switch in detail mode; addr packs
	// item<<32 | phase. Replay skips these.
	recCtx
)

// chunkRecs is the number of records in one trace chunk: 8192 16-byte
// records, 128 KiB.
const chunkRecs = 8192

// chunk is the unit a trace records into and hands to a concurrent
// Replay.
type chunk [chunkRecs]traceRec

// ChunkBytes is the size of one trace chunk, the unit retained traces
// are budgeted in.
const ChunkBytes = chunkRecs * 16

// maxFreeChunks bounds the chunk free list (96 MiB). A retained launch
// (see TraceStore) returns its chunks here when it is evicted, so the
// list covers a full retention budget (512 chunks in internal/cl) on
// top of the streaming peak: the paper sweep at scale 0.25 keeps about
// 220 chunks in flight, because a streamed group that is not yet at
// the head of the dispatch order queues all its chunks. Steady state
// therefore allocates no chunks, while one outsized enqueue cannot pin
// its peak for the life of a process.
const maxFreeChunks = 768

// chunkFree recycles chunks between traces. Chunks are taken on the
// recording goroutine and returned on the replaying one, so the list
// is shared rather than per-trace.
var chunkFree struct {
	sync.Mutex
	list []*chunk
}

func getChunk() *chunk {
	chunkFree.Lock()
	if n := len(chunkFree.list); n > 0 {
		c := chunkFree.list[n-1]
		chunkFree.list = chunkFree.list[:n-1]
		chunkFree.Unlock()
		return c
	}
	chunkFree.Unlock()
	return new(chunk)
}

func putChunk(c *chunk) {
	chunkFree.Lock()
	if len(chunkFree.list) < maxFreeChunks {
		chunkFree.list = append(chunkFree.list, c)
	}
	chunkFree.Unlock()
}

// Trace records the exact sequence of memory events (loads, stores and
// atomics) a work-group emits, in program order. It implements
// AccessObserver, so a worker can execute a group against a Trace
// instead of a device's stateful cache model, and the device can later
// Replay the trace into that model on a single goroutine. Because the
// serial engine interleaves nothing — it runs group 0's accesses, then
// group 1's, and so on — replaying per-group traces in dispatch order
// reproduces the serial access stream exactly, which is what keeps the
// parallel engine's timing reports bit-identical to serial execution.
//
// Records go into fixed-size chunks. A trace armed with Stream hands
// its chunks to Replay while the group is still recording, so the
// timing model can run alongside the VM instead of after it.
//
// Outside detail mode a read or write that has the same space and kind
// as the previous record of the current chunk, lies with it in one
// 64-byte block and overlaps or abuts its byte range folds into it
// (see traceRec). Replay delivers a folded record as its first access
// plus a bulk repeat (RepeatObserver), which a cache model serves as
// hits on the line just touched. Because the widened range stays
// contiguous, the footprint a TraceStore derives is byte-exact.
//
// In detail mode (EnableDetail) the trace additionally records which
// work-item and barrier phase produced each access and the source line
// of the access, which is what the dynamic race detector consumes.
// Detail traces keep one record per access and never stream: race
// observers scan a complete group.
type Trace struct {
	cur   *chunk   // chunk being filled
	n     int      // records in cur
	full  []*chunk // filled chunks not yet handed to a streaming Replay
	nfull int      // chunks filled since NewTrace
	off   int      // first record of cur (non-zero once a TraceStore packs the tail)
	folds int      // accesses folded into an earlier record
	// open is the block (addr>>foldShift) of the last record while a
	// later access may fold into it, else noBlock.
	open int64

	// retain keeps the chunks through Replay and Release, so a
	// TraceStore can replay the trace again later.
	retain bool

	detail   bool
	line     uint16
	curItem  int
	curPhase int

	// Streaming hand-off. announce and streaming belong to the
	// recording goroutine until the announcement publishes the trace;
	// after it, full and finished are guarded by mu, and ready wakes
	// a Replay waiting for more chunks.
	announce  func()
	streaming bool
	mu        sync.Mutex
	finished  bool
	ready     chan struct{}
	batch     []*chunk // Replay's side of the full-chunk swap
}

// tracePool recycles trace headers between work-groups; the parallel
// engine churns through one Trace per group.
var tracePool = sync.Pool{New: func() any { return &Trace{ready: make(chan struct{}, 1)} }}

// NewTrace returns an empty trace (possibly recycled).
func NewTrace() *Trace {
	t := tracePool.Get().(*Trace)
	t.cur, t.n, t.nfull, t.off, t.folds, t.open = getChunk(), 0, 0, 0, 0, noBlock
	t.detail, t.retain = false, false
	t.line = 0
	t.announce, t.streaming, t.finished = nil, false, false
	select {
	case <-t.ready: // a wake-up left over from the previous use
	default:
	}
	return t
}

// Release returns the trace and its chunks to the recycle pools. On a
// streaming trace it first waits for the recording goroutine to
// Finish. The caller must not use the trace afterwards. A retained
// trace (Retain) keeps its chunks: Release only waits for the
// recorder, and the trace stays replayable until Discard or its
// TraceStore frees it.
func (t *Trace) Release() {
	if t == nil {
		return
	}
	if t.streaming {
		t.drain(nil)
	}
	if !t.retain {
		t.free(true)
	}
}

// Discard is Release for a trace that must go back to the pools even
// if it was retained.
func (t *Trace) Discard() {
	if t == nil {
		return
	}
	if t.streaming {
		t.drain(nil)
	}
	t.free(true)
}

// free recycles the trace's full chunks, its current chunk when it
// owns it, and the header.
func (t *Trace) free(ownCur bool) {
	for i, c := range t.full {
		putChunk(c)
		t.full[i] = nil
	}
	t.full = t.full[:0]
	if ownCur {
		putChunk(t.cur)
	}
	t.cur = nil
	tracePool.Put(t)
}

// Retain makes the trace keep its chunks through Replay and Release,
// so it can replay any number of times; hand it to a TraceStore once
// it is complete. Must be called before recording.
func (t *Trace) Retain() { t.retain = true }

// EnableDetail switches the trace into detail mode: work-item/phase
// context switches are interleaved with the access records and each
// access carries its source line. Must be called before recording.
func (t *Trace) EnableDetail() {
	t.detail = true
	t.curItem = -1
	t.curPhase = -1
}

// Detailed reports whether the trace carries work-item context.
func (t *Trace) Detailed() bool { return t.detail }

// Stream arms the streaming hand-off. When the first chunk fills,
// announce is called once on the recording goroutine; it must publish
// the trace to the goroutine that will Replay it. From then on full
// chunks queue for that Replay without blocking the recorder, and the
// recorder must call Finish when it is done. A trace that never fills
// a chunk, or is in detail mode, never announces and replays as a
// whole as usual. Must be called before recording.
func (t *Trace) Stream(announce func()) { t.announce = announce }

// Finish ends recording and reports whether the trace streamed. On a
// streaming trace it lets a concurrent Replay deliver the last records
// and return; the consumer may then release the trace, so the recorder
// must not touch it again. On any other trace it does nothing.
func (t *Trace) Finish() (streamed bool) {
	if !t.streaming {
		return false
	}
	t.mu.Lock()
	t.finished = true
	t.mu.Unlock()
	t.wake()
	return true
}

// wake signals a Replay that may be waiting for chunks. The channel
// holds one token, so a signal is never lost and never blocks.
func (t *Trace) wake() {
	select {
	case t.ready <- struct{}{}:
	default:
	}
}

// add appends one record, spilling the current chunk when it is full.
func (t *Trace) add(r traceRec) {
	if t.n == chunkRecs {
		t.spill()
	}
	t.cur[t.n] = r
	t.n++
}

// spill retires the full current chunk: queued for a streaming
// Replay, or kept for a whole-trace one. The first spill of an armed,
// non-detail trace starts streaming.
func (t *Trace) spill() {
	full := t.cur
	t.cur, t.n = getChunk(), 0
	t.nfull++
	if t.streaming {
		t.mu.Lock()
		t.full = append(t.full, full)
		t.mu.Unlock()
		t.wake()
		return
	}
	t.full = append(t.full, full)
	if t.announce != nil && !t.detail {
		announce := t.announce
		t.announce = nil
		t.streaming = true
		announce()
	}
}

// ContextActive implements ContextObserver: the VM only pays for
// per-access context callbacks when detail mode is on.
func (t *Trace) ContextActive() bool { return t.detail }

// OnContext implements ContextObserver. The VM calls it immediately
// before each access's OnAccess/OnAtomic callback.
func (t *Trace) OnContext(item, phase, line int) {
	if !t.detail {
		return
	}
	t.line = uint16(line)
	if item != t.curItem || phase != t.curPhase {
		t.curItem, t.curPhase = item, phase
		t.add(traceRec{
			addr: int64(item)<<32 | int64(uint32(phase)),
			kind: recCtx,
		})
	}
}

// OnAccess implements AccessObserver.
func (t *Trace) OnAccess(space int, addr int64, size int, write bool) {
	kind := recRead
	if write {
		kind = recWrite
	}
	blk, end := addr>>foldShift, addr+int64(size)
	inBlock := (end-1)>>foldShift == blk
	if blk == t.open && inBlock {
		p := &t.cur[t.n-1]
		lo, hi := p.addr, p.addr+int64(p.size)
		if p.kind == kind && p.space == uint8(space) && addr <= hi && end >= lo && p.rep < math.MaxUint16 {
			p.addr = min(lo, addr)
			p.size = uint16(max(hi, end) - p.addr)
			p.rep++
			t.folds++
			return
		}
	}
	t.open = noBlock
	if inBlock && !t.detail {
		t.open = blk
	}
	t.add(traceRec{addr: addr, size: uint16(size), line: t.line, space: uint8(space), kind: kind})
}

// OnAtomic implements AccessObserver.
func (t *Trace) OnAtomic(space int, addr int64, size int) {
	t.open = noBlock
	t.add(traceRec{addr: addr, size: uint16(size), line: t.line, space: uint8(space), kind: recAtomic})
}

// Len returns the number of recorded events, folded accesses
// included: as many as Replay delivers to an observer that is not a
// RepeatObserver. On a streaming trace it is final once Replay has
// returned.
func (t *Trace) Len() int { return t.records() + t.folds }

// records returns the number of records. It equals Len in detail mode,
// which never folds.
func (t *Trace) records() int { return t.nfull*chunkRecs + t.n - t.off }

// at returns record i (i < records()) of a trace that is not streaming.
func (t *Trace) at(i int) *traceRec {
	if c := i / chunkRecs; c < len(t.full) {
		return &t.full[c][i%chunkRecs]
	}
	return &t.cur[t.off+i-len(t.full)*chunkRecs]
}

// Replay feeds the recorded events into o in recording order. Context
// records from detail mode are skipped, so replaying into a cache
// model is unaffected by race checking. A folded record reaches o as
// one OnAccess with the widened range followed by OnRepeat when o is a
// RepeatObserver, or by one more identical OnAccess per folded access
// when it is not.
//
// On a streaming trace Replay runs concurrently with the recording:
// it delivers chunks as they fill, recycles them, and returns once the
// recorder has called Finish and the last record is delivered. A
// streaming trace replays once, unless it is retained: then Replay
// keeps the chunks and the trace replays as a whole from then on.
func (t *Trace) Replay(o AccessObserver) {
	if t.streaming {
		t.drain(o)
		return
	}
	for _, c := range t.full {
		replayRecs(o, c[:])
	}
	replayRecs(o, t.cur[t.off:t.n])
}

// drain is Replay for a streaming trace; a nil o discards the records.
// A retained trace keeps the drained chunks and stops streaming.
func (t *Trace) drain(o AccessObserver) {
	batch := t.batch
	var kept []*chunk
	for {
		t.mu.Lock()
		batch, t.full = t.full, batch[:0]
		done := t.finished
		t.mu.Unlock()
		for i, c := range batch {
			if o != nil {
				replayRecs(o, c[:])
			}
			if t.retain {
				kept = append(kept, c)
			} else {
				putChunk(c)
			}
			batch[i] = nil
		}
		if done {
			break
		}
		if len(batch) == 0 {
			<-t.ready
		}
	}
	t.batch = batch[:0]
	if o != nil {
		replayRecs(o, t.cur[:t.n])
	}
	if t.retain {
		// The recorder has finished, so the trace is complete and
		// this goroutine owns it.
		t.full = append(t.full, kept...)
		t.streaming = false
	}
}

// replayRecs delivers recs to o: each record's access once, then its
// folded repeats in bulk (or one by one if o is no RepeatObserver).
func replayRecs(o AccessObserver, recs []traceRec) {
	ro, bulk := o.(RepeatObserver)
	for i := range recs {
		r := &recs[i]
		switch r.kind {
		case recCtx:
			// not a memory event
		case recAtomic:
			o.OnAtomic(int(r.space), r.addr, int(r.size))
		default:
			write := r.kind == recWrite
			o.OnAccess(int(r.space), r.addr, int(r.size), write)
			if r.rep == 0 {
				continue
			}
			if bulk {
				ro.OnRepeat(int(r.rep), write)
				continue
			}
			for range r.rep {
				o.OnAccess(int(r.space), r.addr, int(r.size), write)
			}
		}
	}
}
