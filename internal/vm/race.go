package vm

import (
	"fmt"
	"sync"

	"maligo/internal/clc/ir"
)

// DataRace is one dynamically-observed intra-work-group data race: two
// work-items of the same group touched the same byte in the same
// barrier phase, at least one of them writing, without both accesses
// being atomic. Access A is the one observed first in execution order.
type DataRace struct {
	Kernel string
	Group  [3]int
	Space  int   // ir.Space* of the conflicting location
	Offset int64 // space-relative byte offset of the first shared byte
	Phase  int   // barrier phase the conflict happened in

	ItemA, ItemB     int // flat local work-item indices
	LineA, LineB     int // source lines of the accesses (0 if unknown)
	WriteA, WriteB   bool
	AtomicA, AtomicB bool
}

func spaceName(space int) string {
	switch space {
	case ir.SpaceGlobal:
		return "__global"
	case ir.SpaceLocal:
		return "__local"
	case ir.SpaceConstant:
		return "__constant"
	default:
		return "__private"
	}
}

func accessName(write, atomic bool) string {
	switch {
	case atomic:
		return "atomic"
	case write:
		return "write"
	default:
		return "read"
	}
}

func (r DataRace) String() string {
	return fmt.Sprintf("%s group (%d,%d,%d): %s at line %d by work-item %d races with %s at line %d by work-item %d on %s byte %d (barrier phase %d)",
		r.Kernel, r.Group[0], r.Group[1], r.Group[2],
		accessName(r.WriteA, r.AtomicA), r.LineA, r.ItemA,
		accessName(r.WriteB, r.AtomicB), r.LineB, r.ItemB,
		spaceName(r.Space), r.Offset, r.Phase)
}

// raceKey dedupes races per pair of source locations; one racy line
// pair in a loop would otherwise report once per iteration per byte.
type raceKey struct {
	space        uint8
	lineA, lineB uint16
}

// byteShadow is the per-byte access history within one barrier phase.
type byteShadow struct {
	write     shadowAccess
	hasWrite  bool
	read      shadowAccess
	hasRead   bool
	readOther shadowAccess // first read from a different item than read
	hasOther  bool
}

type shadowAccess struct {
	item   int
	line   uint16
	atomic bool
}

// RaceDetector consumes detailed work-group traces (Trace with
// EnableDetail) and reports intra-work-group races: conflicting
// accesses by two work-items in the same barrier phase. It implements
// the device layer's race-observer hook and is safe for use from the
// ordered fan-in of the parallel engine (calls are serialized there;
// the mutex additionally makes it safe anywhere).
//
// Scope: races *between* work-groups are not detected — groups are
// traced independently — which matches the OpenCL model, where
// cross-group conflicts are only synchronizable across kernel
// launches anyway.
type RaceDetector struct {
	Kernel string
	// Max bounds the number of retained races; 0 means 16.
	Max int

	mu    sync.Mutex
	seen  map[raceKey]bool
	races []DataRace
}

// Races returns the races observed so far, in detection order.
func (d *RaceDetector) Races() []DataRace {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]DataRace, len(d.races))
	copy(out, d.races)
	return out
}

func (d *RaceDetector) max() int {
	if d.Max > 0 {
		return d.Max
	}
	return 16
}

// ObserveGroup scans one work-group's detailed trace for conflicting
// same-phase accesses. Traces recorded without detail mode carry no
// work-item attribution and are ignored.
func (d *RaceDetector) ObserveGroup(group [3]int, tr *Trace) {
	if tr == nil || !tr.detail {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.seen == nil {
		d.seen = make(map[raceKey]bool)
	}
	if len(d.races) >= d.max() {
		return
	}

	shadow := make(map[int64]*byteShadow)
	item, phase := -1, 0
	n := tr.Len()
	for i := 0; i < n; i++ {
		rec := tr.at(i)
		switch rec.kind {
		case recCtx:
			newItem := int(rec.addr >> 32)
			newPhase := int(uint32(rec.addr))
			if newPhase != phase {
				// A barrier orders everything before it with everything
				// after: conflicts cannot span phases.
				shadow = make(map[int64]*byteShadow)
			}
			item, phase = newItem, newPhase
			continue
		case recAtomic:
			// Atomics record as OnAccess(write) + OnAtomic; the write
			// record right before this one already carried the event.
			continue
		}
		// Private memory is per-work-item (identical tagged offsets name
		// distinct storage) and constant memory is read-only: only the
		// shared spaces can race.
		if rec.space != uint8(ir.SpaceGlobal) && rec.space != uint8(ir.SpaceLocal) {
			continue
		}
		atomic := false
		if i+1 < n {
			next := tr.at(i + 1)
			atomic = next.kind == recAtomic && next.addr == rec.addr
		}
		cur := shadowAccess{item: item, line: rec.line, atomic: atomic}
		write := rec.kind == recWrite
		for b := int64(0); b < int64(rec.size); b++ {
			addr := rec.addr + b
			sh := shadow[addr]
			if sh == nil {
				sh = &byteShadow{}
				shadow[addr] = sh
			}
			if write {
				if sh.hasWrite && sh.write.item != item && !(sh.write.atomic && atomic) {
					d.report(group, phase, int(rec.space), addr, sh.write, cur, true, true)
				} else if sh.hasRead && sh.read.item != item {
					d.report(group, phase, int(rec.space), addr, sh.read, cur, false, true)
				} else if sh.hasOther && sh.readOther.item != item {
					d.report(group, phase, int(rec.space), addr, sh.readOther, cur, false, true)
				}
				sh.write, sh.hasWrite = cur, true
			} else {
				if sh.hasWrite && sh.write.item != item {
					d.report(group, phase, int(rec.space), addr, sh.write, cur, true, false)
				}
				if !sh.hasRead {
					sh.read, sh.hasRead = cur, true
				} else if !sh.hasOther && sh.read.item != item {
					sh.readOther, sh.hasOther = cur, true
				}
			}
			if len(d.races) >= d.max() {
				return
			}
		}
	}
}

func (d *RaceDetector) report(group [3]int, phase, space int, addr int64, a, b shadowAccess, writeA, writeB bool) {
	key := raceKey{space: uint8(space), lineA: a.line, lineB: b.line}
	if key.lineA > key.lineB {
		key.lineA, key.lineB = key.lineB, key.lineA
	}
	if d.seen[key] {
		return
	}
	d.seen[key] = true
	_, off := ir.DecodeAddr(addr)
	d.races = append(d.races, DataRace{
		Kernel: d.Kernel,
		Group:  group,
		Space:  space,
		Offset: off,
		Phase:  phase,
		ItemA:  a.item, ItemB: b.item,
		LineA: int(a.line), LineB: int(b.line),
		WriteA: writeA, WriteB: writeB,
		AtomicA: a.atomic, AtomicB: b.atomic,
	})
}
