package vm

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// LineStat aggregates the memory behaviour attributed to one kernel
// source line: how many memory instructions it executed and how many
// bytes they moved. It is the unit of the pprof-style hot-line report.
type LineStat struct {
	// Line is the 1-based source line (0 collects accesses the
	// compiler could not attribute).
	Line int
	// Accesses counts memory instructions (loads + stores + atomics).
	Accesses uint64
	Reads    uint64
	Writes   uint64
	Atomics  uint64
	// Bytes is the total bytes moved by this line's accesses — the
	// quantity that dominates Mali load/store-pipe occupancy.
	Bytes uint64
}

// LineProfiler consumes detailed work-group traces (Trace with
// EnableDetail) and attributes every memory access to its source line.
// It implements the device layer's trace-observer hook, like
// RaceDetector does, and may share an enqueue with it via
// device.FanObservers. Safe for concurrent use; the engine's ordered
// fan-in serializes calls anyway.
type LineProfiler struct {
	mu    sync.Mutex
	lines map[int]*LineStat
}

// NewLineProfiler creates an empty profiler.
func NewLineProfiler() *LineProfiler {
	return &LineProfiler{lines: make(map[int]*LineStat)}
}

// ObserveGroup folds one work-group's detailed trace into the profile.
// Traces recorded without detail mode carry no line attribution and
// are ignored.
func (p *LineProfiler) ObserveGroup(group [3]int, tr *Trace) {
	if tr == nil || !tr.detail {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, n := 0, tr.Len(); i < n; i++ {
		rec := tr.at(i)
		if rec.kind == recCtx {
			continue
		}
		st := p.lines[int(rec.line)]
		if st == nil {
			st = &LineStat{Line: int(rec.line)}
			p.lines[int(rec.line)] = st
		}
		switch rec.kind {
		case recAtomic:
			// Atomics record as a write access plus an atomic marker;
			// the access itself was already counted.
			st.Atomics++
			continue
		case recWrite:
			st.Writes++
		default:
			st.Reads++
		}
		st.Accesses++
		st.Bytes += uint64(rec.size)
	}
}

// Top returns the n hottest lines by bytes moved (ties broken by line
// number); n <= 0 returns every line.
func (p *LineProfiler) Top(n int) []LineStat {
	p.mu.Lock()
	out := make([]LineStat, 0, len(p.lines))
	for _, st := range p.lines { // maligo:allow maporder sorted below
		out = append(out, *st)
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Line < out[j].Line
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// TotalBytes returns the bytes moved across every profiled line.
func (p *LineProfiler) TotalBytes() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var total uint64
	for _, st := range p.lines { // maligo:allow maporder sum commutes
		total += st.Bytes
	}
	return total
}

// FormatHotLines renders line stats as a pprof-style top report, one
// line per entry, annotated with the kernel source text when source is
// non-empty. The percentage column is each line's share of the total
// bytes moved across stats.
func FormatHotLines(stats []LineStat, source string) string {
	var srcLines []string
	if source != "" {
		srcLines = strings.Split(source, "\n")
	}
	var total uint64
	for _, st := range stats {
		total += st.Bytes
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %7s %10s %10s %8s  %s\n", "bytes", "%", "reads", "writes", "atomics", "line")
	for _, st := range stats {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(st.Bytes) / float64(total)
		}
		fmt.Fprintf(&b, "%10d %6.2f%% %10d %10d %8d  #%d", st.Bytes, pct, st.Reads, st.Writes, st.Atomics, st.Line)
		if st.Line >= 1 && st.Line <= len(srcLines) {
			fmt.Fprintf(&b, ": %s", strings.TrimSpace(srcLines[st.Line-1]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
