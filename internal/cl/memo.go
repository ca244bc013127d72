package cl

// Launch memoization. The VM is a pure function of the device, the
// kernel binary, the bound arguments, the NDRange and the global bytes
// a launch reads, so a launch that repeats all of them — the harness's
// measured run after its warm-up — does not need to execute again. Its
// first execution is recorded: each group's profile and retained trace,
// and the bound buffers' bytes before and after the launch. A later
// launch with the same key whose read footprint still holds the same
// bytes writes the recorded final bytes of the write set into the arena
// and hands the recorded groups to the device, whose timing model then
// replays the exact access stream of a fresh execution. Every simulated
// observable is therefore bit-identical to re-execution by
// construction.
//
// The footprint is derived lazily, on the first key match, from the
// recorded trace: the union of global reads and atomics, with bytes
// from the pre-launch snapshot; the write set takes its bytes from the
// post-launch one. That is sound under the engine's data-parallel
// contract (groups write disjoint ranges or combine through
// commutative atomics): every byte a launch reads is keyed, and a byte
// it only writes is not, so a reduction's partials or an output buffer
// may change between runs and the launch still hits.

import (
	"bytes"
	"container/list"
	"encoding/binary"
	"math"
	"math/bits"
	"sync"

	"maligo/internal/clc/ir"
	"maligo/internal/device"
	"maligo/internal/mem"
	"maligo/internal/vm"
)

// memoBudget bounds, process-wide, what memo entries retain: trace
// chunks plus snapshot and footprint bytes, in vm.ChunkBytes units
// (512 units, 64 MiB). The largest launch of the paper sweep at scale
// 0.25 (amcd) records about 390 chunks. vm's chunk free list is sized
// to take a full budget back.
const memoBudget = 512

// memoPerKey caps the entries kept for one key, so a launch that
// repeats with changing inputs compares against a few footprints only.
const memoPerKey = 4

// memoKey is everything about a launch except the memory it reads.
type memoKey struct {
	dev     device.Device
	prog    *ir.Program // owns the constant segment
	kernel  *ir.Kernel
	workDim int
	global  [3]int
	local   [3]int
	offset  [3]int
	args    string // bound argument values, encoded
}

// memoSpan is one byte interval of the arena.
type memoSpan struct{ off, n int64 }

// memoEntry is one recorded launch.
type memoEntry struct {
	owner  *launchMemo
	key    memoKey
	groups []*device.GroupWork
	traces vm.TraceStore
	units  int           // budget units charged
	elem   *list.Element // in memoLRU.lru
	refs   int           // lookups holding it; guarded by memoLRU
	dead   bool          // evicted; the last unpin frees it

	// lo and the snapshots of [lo, lo+len(pre)) before and after the
	// recording launch; dropped once the footprint is derived.
	lo        int64
	pre, post []byte

	derive     sync.Once
	keyed      bool // every global access fell inside the snapshot
	reads      []memoSpan
	readBytes  []byte
	writes     []memoSpan
	writeBytes []byte
}

// memoLRU is the process-wide budget and recency order over every
// context's entries. Its mutex also guards each launchMemo's map and
// each entry's refs and dead flag.
var memoLRU struct {
	sync.Mutex
	used int
	lru  list.List // of *memoEntry, most recently used first
}

// launchMemo is one context's memo.
type launchMemo struct {
	entries map[memoKey][]*memoEntry
	closed  bool
}

func newLaunchMemo() *launchMemo {
	return &launchMemo{entries: make(map[memoKey][]*memoEntry)}
}

// budgetUnits converts a byte count to budget units, rounding up.
func budgetUnits(n int) int { return (n + vm.ChunkBytes - 1) / vm.ChunkBytes }

// memoKeyOf builds the launch key and the span [lo, hi) covering every
// bound global buffer. ok is false when a pointer argument does not
// name a live allocation, so no snapshot can cover it.
func memoKeyOf(dev device.Device, k *Kernel, ndr *device.NDRange, arena *mem.Arena) (key memoKey, lo, hi int64, ok bool) {
	key = memoKey{
		dev:     dev,
		prog:    k.prog.prog,
		kernel:  ndr.Kernel,
		workDim: ndr.WorkDim,
		global:  ndr.Global,
		local:   ndr.Local,
		offset:  ndr.Offset,
	}
	buf := make([]byte, 0, 24*len(ndr.Args))
	lo, hi = math.MaxInt64, 0
	for i, a := range ndr.Args {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(a.Bits))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.F))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(a.LocalSize))
		if ndr.Kernel.Params[i].Class != ir.ParamGlobalPtr {
			continue
		}
		_, base := ir.DecodeAddr(a.Bits)
		size, live := arena.AllocSize(base)
		if !live {
			return key, 0, 0, false
		}
		lo, hi = min(lo, base), max(hi, base+size)
	}
	key.args = string(buf)
	if lo > hi {
		lo, hi = 0, 0
	}
	return key, lo, hi, true
}

// lookup returns a pinned entry whose footprint matches the arena, or
// nil. The caller must unpin a returned entry.
func (m *launchMemo) lookup(key memoKey, arena *mem.Arena) *memoEntry {
	memoLRU.Lock()
	cands := append([]*memoEntry(nil), m.entries[key]...)
	for _, e := range cands {
		e.refs++
	}
	memoLRU.Unlock()
	var hit *memoEntry
	for i := len(cands) - 1; i >= 0; i-- { // newest first
		if e := cands[i]; hit == nil && e.matches(arena) {
			hit = e
		} else {
			e.unpin()
		}
	}
	if hit != nil {
		memoLRU.Lock()
		if !hit.dead {
			memoLRU.lru.MoveToFront(hit.elem)
		}
		memoLRU.Unlock()
	}
	return hit
}

// matches derives the footprint on first use and reports whether the
// arena holds the recorded pre-launch bytes over it.
func (e *memoEntry) matches(arena *mem.Arena) bool {
	e.derive.Do(e.deriveFootprint)
	if !e.keyed {
		return false
	}
	pos := int64(0)
	for _, s := range e.reads {
		cur, err := arena.Bytes(s.off, s.n)
		if err != nil || !bytes.Equal(cur, e.readBytes[pos:pos+s.n]) {
			return false
		}
		pos += s.n
	}
	return true
}

// writeBack stores the recorded final bytes of the write set.
func (e *memoEntry) writeBack(arena *mem.Arena) error {
	pos := int64(0)
	for _, s := range e.writes {
		dst, err := arena.Bytes(s.off, s.n)
		if err != nil {
			return err
		}
		copy(dst, e.writeBytes[pos:pos+s.n])
		pos += s.n
	}
	return nil
}

// deriveFootprint marks the recorded traces' global accesses in
// bitmaps over the snapshot span and cuts them into the read footprint
// and the write set, then swaps the snapshots for those bytes.
func (e *memoEntry) deriveFootprint() {
	n := int64(len(e.pre))
	words := (n + 63) / 64
	read, write := make([]uint64, words), make([]uint64, words)
	if e.keyed = e.traces.Footprint(e.lo, n, read, write); e.keyed {
		e.reads, e.readBytes = cutSpans(read, e.lo, e.pre)
		e.writes, e.writeBytes = cutSpans(write, e.lo, e.post)
	}
	memoLRU.Lock()
	putSnapshot(e.pre)
	putSnapshot(e.post)
	e.pre, e.post = nil, nil
	u := e.traces.Chunks() + budgetUnits(len(e.readBytes)+len(e.writeBytes))
	if !e.dead {
		memoLRU.used += u - e.units
	}
	e.units = u
	memoLRU.Unlock()
}

// cutSpans turns a byte bitmap into its runs of set bits, offset by
// lo, and gathers their bytes from src (indexed from lo).
func cutSpans(bm []uint64, lo int64, src []byte) ([]memoSpan, []byte) {
	var spans []memoSpan
	var data []byte
	start := int64(-1)
	for w, word := range bm {
		base := int64(w) * 64
		for b := int64(0); b < 64; {
			rest := word >> uint(b)
			if start < 0 {
				if rest == 0 {
					break
				}
				b += int64(bits.TrailingZeros64(rest))
				start = base + b
			} else {
				ones := int64(bits.TrailingZeros64(^rest))
				if b+ones < 64 {
					b += ones
					spans = append(spans, memoSpan{off: lo + start, n: base + b - start})
					data = append(data, src[start:base+b]...)
					start = -1
				} else {
					b = 64
				}
			}
		}
	}
	if start >= 0 {
		end := int64(len(bm)) * 64
		spans = append(spans, memoSpan{off: lo + start, n: end - start})
		data = append(data, src[start:end]...)
	}
	return spans, data
}

// memoReserve charges n units to the budget, evicting least recently
// used entries that no lookup holds. It reports false, charging
// nothing, when they cannot make room.
func memoReserve(n int) bool {
	memoLRU.Lock()
	defer memoLRU.Unlock()
	for el := memoLRU.lru.Back(); memoLRU.used+n > memoBudget && el != nil; {
		e := el.Value.(*memoEntry)
		el = el.Prev()
		if e.refs == 0 {
			e.evictLocked()
		}
	}
	if memoLRU.used+n > memoBudget {
		return false
	}
	memoLRU.used += n
	return true
}

// memoUnreserve returns n units to the budget.
func memoUnreserve(n int) {
	memoLRU.Lock()
	memoLRU.used -= n
	memoLRU.Unlock()
}

// evictLocked removes a live entry from its memo and the recency
// order and frees it unless a lookup still holds it. memoLRU must be
// held.
func (e *memoEntry) evictLocked() {
	list := e.owner.entries[e.key]
	for i, x := range list {
		if x == e {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		delete(e.owner.entries, e.key)
	} else {
		e.owner.entries[e.key] = list
	}
	memoLRU.lru.Remove(e.elem)
	memoLRU.used -= e.units
	e.dead = true
	if e.refs == 0 {
		e.free()
	}
}

// free returns the entry's chunks and snapshots to their pools.
func (e *memoEntry) free() {
	e.traces.Free()
	putSnapshot(e.pre)
	putSnapshot(e.post)
	e.pre, e.post = nil, nil
}

// snapPool recycles snapshot buffers, so launches that never repeat
// (every malid job) do not allocate two copies of their buffers each.
var snapPool sync.Pool // of *[]byte

func takeSnapshot(src []byte) []byte {
	if p, ok := snapPool.Get().(*[]byte); ok && cap(*p) >= len(src) {
		return append((*p)[:0], src...)
	}
	return bytes.Clone(src)
}

func putSnapshot(b []byte) {
	if cap(b) > 0 {
		snapPool.Put(&b)
	}
}

// unpin releases a lookup's hold on the entry.
func (e *memoEntry) unpin() {
	memoLRU.Lock()
	e.refs--
	if e.dead && e.refs == 0 {
		e.free()
	}
	memoLRU.Unlock()
}

// drop evicts every entry of the memo; closed also stops it recording.
func (m *launchMemo) drop(closed bool) {
	memoLRU.Lock()
	defer memoLRU.Unlock()
	m.closed = m.closed || closed
	for _, list := range m.entries { // maligo:allow maporder evicting distinct entries commutes
		for _, e := range append([]*memoEntry(nil), list...) {
			e.evictLocked()
		}
	}
}

// memoRecording collects one missed launch's groups for its entry.
type memoRecording struct {
	e       *memoEntry
	arena   *mem.Arena
	dropped bool // over budget: the groups are discarded as they come
}

// record starts recording a launch over the bound span [lo, hi),
// snapshotting it. It returns nil when the snapshots do not fit the
// budget or the memo is closed.
func (m *launchMemo) record(key memoKey, lo, hi int64, arena *mem.Arena) *memoRecording {
	memoLRU.Lock()
	closed := m.closed
	memoLRU.Unlock()
	snap := budgetUnits(2 * int(hi-lo))
	if closed || !memoReserve(snap) {
		return nil
	}
	pre, err := arena.Bytes(lo, hi-lo)
	if err != nil {
		memoUnreserve(snap)
		return nil
	}
	e := &memoEntry{owner: m, key: key, lo: lo, pre: takeSnapshot(pre), units: snap}
	return &memoRecording{e: e, arena: arena}
}

// add is the launch's record sink: it keeps the group and charges its
// chunks, dropping the whole recording once the budget cannot take
// them.
func (r *memoRecording) add(gw *device.GroupWork) {
	if r.dropped {
		gw.Trace.Discard()
		return
	}
	before := r.e.traces.Chunks()
	r.e.traces.Keep(gw.Trace)
	r.e.groups = append(r.e.groups, gw)
	grown := r.e.traces.Chunks() - before
	if grown > 0 && !memoReserve(grown) {
		r.abort()
		r.dropped = true
		return
	}
	r.e.units += grown
}

// abort frees what the recording holds.
func (r *memoRecording) abort() {
	if !r.dropped {
		r.e.free()
		memoUnreserve(r.e.units)
	}
	r.e.groups = nil
}

// commit snapshots the launch's result and inserts the entry. It
// reports false when the recording was dropped for the budget.
func (r *memoRecording) commit() bool {
	if r.dropped {
		return false
	}
	e, m := r.e, r.e.owner
	post, err := r.arena.Bytes(e.lo, int64(len(e.pre)))
	if err != nil {
		r.abort()
		return false
	}
	e.post = takeSnapshot(post)
	memoLRU.Lock()
	defer memoLRU.Unlock()
	if m.closed {
		memoLRU.used -= e.units
		e.free()
		return false
	}
	if list := m.entries[e.key]; len(list) >= memoPerKey {
		list[0].evictLocked()
	}
	m.entries[e.key] = append(m.entries[e.key], e)
	e.elem = memoLRU.lru.PushFront(e)
	return true
}

// runMemoized runs the launch through the context's memo: a hit
// writes the recorded bytes back and replays the recorded groups, a
// miss executes and records. Every outcome bumps one cl.memo.*
// counter: hits, misses (executed and recorded), or a bypass — detail
// mode, a launch the budget cannot hold, a pointer argument outside
// any live buffer, or a failed launch.
func (q *CommandQueue) runMemoized(rc device.RunConfig, k *Kernel, ndr *device.NDRange, target *memTarget) (*device.Report, error) {
	m := q.ctx.memo
	if m == nil {
		return q.dev.RunWith(rc, ndr, target)
	}
	count := func(name string) { q.ctx.metrics.Counter("cl.memo." + name).Inc() }
	if rc.Race != nil {
		count("bypass.detail")
		return q.dev.RunWith(rc, ndr, target)
	}
	arena := q.ctx.arena
	device.NormalizeLocal(q.dev, ndr)
	key, lo, hi, ok := memoKeyOf(q.dev, k, ndr, arena)
	if !ok {
		count("bypass.unkeyed")
		return q.dev.RunWith(rc, ndr, target)
	}
	if e := m.lookup(key, arena); e != nil {
		defer e.unpin()
		if err := e.writeBack(arena); err != nil {
			count("bypass.failed")
			return nil, err
		}
		rc.Replay = e.groups
		rep, err := q.dev.RunWith(rc, ndr, target)
		if err != nil {
			count("bypass.failed")
			return nil, err
		}
		count("hits")
		return rep, nil
	}
	rec := m.record(key, lo, hi, arena)
	if rec != nil {
		rc.Record = rec.add
	}
	rep, err := q.dev.RunWith(rc, ndr, target)
	switch {
	case err != nil:
		if rec != nil {
			rec.abort()
		}
		count("bypass.failed")
		return nil, err
	case rec != nil && rec.commit():
		count("misses")
	default:
		count("bypass.over_budget")
	}
	return rep, nil
}
