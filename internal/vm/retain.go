package vm

import (
	"math"

	"maligo/internal/clc/ir"
)

// TraceStore owns the retained traces of one recorded launch, so the
// launch can later be replayed into a timing model without executing
// it again. A trace's full chunks move into the store as they are; its
// partly filled last chunk is packed next to the tails of the other
// traces, so a launch of many small work-groups costs about its record
// count in memory rather than one chunk per group.
type TraceStore struct {
	traces []*Trace
	packs  []*chunk // shared chunks holding the packed tails
	used   int      // records used in the last pack
	chunks int      // chunks held: the traces' full chunks plus packs
}

// Keep takes ownership of a complete, retained trace that has already
// been replayed (or never streamed). The trace stays replayable until
// Free; the caller must not Release it again.
func (s *TraceStore) Keep(t *Trace) {
	s.traces = append(s.traces, t)
	s.chunks += len(t.full)
	tail := t.cur[:t.n]
	if len(s.packs) == 0 || s.used+len(tail) > chunkRecs {
		s.packs = append(s.packs, getChunk())
		s.used = 0
		s.chunks++
	}
	pack := s.packs[len(s.packs)-1]
	copy(pack[s.used:], tail)
	putChunk(t.cur)
	t.cur, t.off, t.n = pack, s.used, s.used+len(tail)
	s.used += len(tail)
}

// Chunks reports how many trace chunks the store holds.
func (s *TraceStore) Chunks() int { return s.chunks }

// Free returns every chunk and trace header to the recycle pools. The
// store and its traces must not be used afterwards.
func (s *TraceStore) Free() {
	for _, t := range s.traces {
		t.free(false)
	}
	for _, c := range s.packs {
		putChunk(c)
	}
	s.traces, s.packs, s.used, s.chunks = nil, nil, 0, 0
}

// Footprint marks, in the bitmaps read and write (one bit per byte of
// global memory from lo), the global bytes the stored traces read and
// wrote: loads and atomics read, stores and atomics write (an atomic
// records a write followed by an atomic record). It reports false as
// soon as a global access falls outside the n bytes from lo, leaving
// the bitmaps partly marked. It walks the records directly, not through
// Replay, because it visits every record of a launch.
func (s *TraceStore) Footprint(lo, n int64, read, write []uint64) bool {
	for _, t := range s.traces {
		for _, c := range t.full {
			if !markFootprint(c[:], lo, n, read, write) {
				return false
			}
		}
		if !markFootprint(t.cur[t.off:t.n], lo, n, read, write) {
			return false
		}
	}
	return true
}

func markFootprint(recs []traceRec, lo, n int64, read, write []uint64) bool {
	for i := range recs {
		r := &recs[i]
		if r.space != ir.SpaceGlobal || r.kind == recCtx {
			continue // local and private memory are per group; constants belong to the program
		}
		_, off := ir.DecodeAddr(r.addr)
		start, end := off-lo, off-lo+int64(r.size)
		if start < 0 || end > n {
			return false
		}
		bm := read
		if r.kind == recWrite {
			bm = write
		}
		for start < end {
			w, b := start>>6, uint(start&63)
			k := min(int64(64-b), end-start)
			bm[w] |= (uint64(math.MaxUint64) >> (64 - uint(k))) << b
			start += k
		}
	}
	return true
}
