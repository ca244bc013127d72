// Package progcache is the content-addressed compiled-program cache
// of the malid service — the clGetProgramBinaries analogue. Programs
// are keyed by the sha256 of (source, build options); a hit skips the
// whole clc pipeline and shares one *ir.Program across every tenant
// (safe: the IR is immutable after compilation and each kernel
// memoizes its engine-compiled form behind an atomic). Entries are
// LRU-bounded and optionally persisted to disk as gob "binaries", so
// a restarted daemon warms up from its cache directory.
package progcache

import (
	"container/list"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"maligo/internal/cl"
	"maligo/internal/clc/analysis"
	"maligo/internal/clc/ir"
	"maligo/internal/clc/opt"
	"maligo/internal/job"
)

// Entry is one cached compiled program plus its static-analysis
// verdict. Diagnostics are computed once at compile time and ride the
// content address: a cache hit (memory or disk) serves them without
// re-running the analyzer.
type Entry struct {
	ID      string // job.ProgramID content address
	Source  string
	Options string
	Prog    *ir.Program

	// Analyzed marks entries produced by an analyzer-aware daemon;
	// persisted binaries without it predate the tier-2 engine and are
	// recompiled rather than trusted.
	Analyzed bool
	Diags    []analysis.Diagnostic

	// EngineTier records the engine generation of the compiling
	// daemon (see CurrentEngineTier). A persisted binary from an older
	// daemon — gob decodes its absent field as 0 — is recompiled on
	// load rather than trusted, exactly like pre-analyzer binaries.
	EngineTier int

	// Optimized marks entries holding transform-pipeline output; their
	// content address is OptimizedID, distinct from the plain compile
	// of the same (source, options), so both programs coexist in one
	// cache and on disk. OptPasses lists the passes that applied.
	Optimized bool
	OptPasses []string
}

// CurrentEngineTier is the engine generation stamped into new cache
// entries: 1 interpreter, 2 compiled closures, 3 the generation that
// shipped with a lock-step lane engine, since removed. It stays at 3:
// the stamp is a stored value that rejects stale on-disk binaries, and
// lowering it would make a daemon accept the tier-2 binaries it
// rejects today. Bump it whenever a change alters what the IR contract
// promises; never lower it.
const CurrentEngineTier = 3

// MaxSeverity returns the highest diagnostic severity in the entry.
func (e *Entry) MaxSeverity() analysis.Severity { return analysis.MaxSeverity(e.Diags) }

// optMarker versions the optimized content address: it is appended to
// the options inside the hash only, never shown to the compiler, so
// an optimized program can never collide with a plain compile and a
// pipeline change (new pass, new codegen) retires stale binaries by
// changing the marker.
const optMarker = "\x00optimize=v1"

// OptimizedID is the content address of the transform-pipeline output
// for (source, options).
func OptimizedID(source, options string) string {
	return job.ProgramID(source, options+optMarker)
}

// entryID recomputes the content address an entry must carry.
func entryID(e *Entry) string {
	if e.Optimized {
		return OptimizedID(e.Source, e.Options)
	}
	return job.ProgramID(e.Source, e.Options)
}

// Cache is the LRU. The zero value is unusable; call New.
type Cache struct {
	mu      sync.Mutex
	max     int
	dir     string // "" disables persistence
	order   *list.List
	entries map[string]*list.Element

	hits, misses uint64
}

// New creates a cache bounded to max entries (default 128). dir, when
// non-empty, enables disk persistence: every compiled program is
// written there and evicted/missing entries are reloaded on demand.
func New(max int, dir string) (*Cache, error) {
	if max <= 0 {
		max = 128
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("progcache: %w", err)
		}
	}
	return &Cache{
		max:     max,
		dir:     dir,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}, nil
}

// Len returns the number of in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats returns cumulative hit/miss counts. Every GetOrCompile* call
// counts exactly once, as the hit it returns: a disk reload counts as
// a hit (the compile was skipped — that is what the metric tracks),
// and an optimizing call that finds only the plain entry is a miss.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// count records one GetOrCompile* outcome.
func (c *Cache) count(hit bool) {
	c.mu.Lock()
	if hit {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
}

// Get returns the entry for a content address, consulting memory and
// then disk. It does not compile and does not touch the hit/miss
// counters (it backs program_id-only job submissions).
func (c *Cache) Get(id string) (*Entry, bool) {
	c.mu.Lock()
	if el, ok := c.entries[id]; ok {
		c.order.MoveToFront(el)
		e := el.Value.(*Entry)
		c.mu.Unlock()
		return e, true
	}
	c.mu.Unlock()
	e, err := c.load(id)
	if err != nil {
		return nil, false
	}
	c.insert(e)
	return e, true
}

// GetOrCompile returns the compiled program for (source, options),
// compiling on a cold miss. hit reports whether the compile was
// skipped (memory or disk).
func (c *Cache) GetOrCompile(source, options string) (e *Entry, hit bool, err error) {
	id := job.ProgramID(source, options)
	if e, ok := c.Get(id); ok {
		c.count(true)
		return e, true, nil
	}
	c.count(false)
	art, err := job.Compile(source, options)
	if err != nil {
		return nil, false, fmt.Errorf("%w: %v", cl.ErrBuildFailure, err)
	}
	e = plainEntry(id, source, options, art.Prog, analysis.Analyze(art))
	c.insert(e)
	c.store(e)
	return e, false, nil
}

// GetOrCompileOptimized returns the transform-pipeline output for
// (source, options), compiling and optimizing on a cold miss. The
// plain compiled program is cached too, under its own content address:
// admission gates still judge the program the tenant wrote, and a
// later non-optimizing daemon hits the plain entry untouched. The
// entry's Diags are the plain program's — the transforms answer those
// diagnostics, they do not re-lint their own output. When only the
// plain entry is cached, the call is a miss that optimizes it without
// recompiling.
func (c *Cache) GetOrCompileOptimized(source, options string) (e *Entry, hit bool, err error) {
	id := OptimizedID(source, options)
	if e, ok := c.Get(id); ok {
		c.count(true)
		return e, true, nil
	}
	c.count(false)
	if base, ok := c.Get(job.ProgramID(source, options)); ok {
		prog, rep := opt.Optimize(base.Prog)
		e = optimizedEntry(base, prog, rep)
	} else {
		var base *Entry
		if base, e, err = admit(source, options); err != nil {
			return nil, false, fmt.Errorf("%w: %v", cl.ErrBuildFailure, err)
		}
		c.insert(base)
		c.store(base)
	}
	c.insert(e)
	c.store(e)
	return e, false, nil
}

// admit is one cold optimizing admission below the cache: it compiles
// once, runs the analyzer gate, and optimizes starting from the
// dataflow facts the gate solved, so each kernel is solved once up
// front. It returns the plain entry and the optimized one.
func admit(source, options string) (base, optimized *Entry, err error) {
	art, err := job.Compile(source, options)
	if err != nil {
		return nil, nil, err
	}
	diags, facts := analysis.AnalyzeFacts(art)
	base = plainEntry(job.ProgramID(source, options), source, options, art.Prog, diags)
	prog, rep := opt.OptimizeSeeded(art.Prog, facts)
	return base, optimizedEntry(base, prog, rep), nil
}

func plainEntry(id, source, options string, prog *ir.Program, diags []analysis.Diagnostic) *Entry {
	return &Entry{
		ID: id, Source: source, Options: options, Prog: prog,
		Analyzed: true, Diags: diags,
		EngineTier: CurrentEngineTier,
	}
}

func optimizedEntry(base *Entry, prog *ir.Program, rep *opt.Report) *Entry {
	return &Entry{
		ID: OptimizedID(base.Source, base.Options), Source: base.Source, Options: base.Options, Prog: prog,
		Analyzed: true, Diags: base.Diags,
		EngineTier: CurrentEngineTier,
		Optimized:  true, OptPasses: rep.AppliedPasses(),
	}
}

// insert adds an entry at the LRU front, evicting beyond the bound.
// Evicted entries stay on disk (when persistence is on) and reload
// transparently on the next Get.
func (c *Cache) insert(e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.ID]; ok {
		c.order.MoveToFront(el)
		return
	}
	c.entries[e.ID] = c.order.PushFront(e)
	for c.order.Len() > c.max {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*Entry).ID)
	}
}

// path maps a content address to its binary file.
func (c *Cache) path(id string) string {
	hex := strings.TrimPrefix(id, "sha256:")
	return filepath.Join(c.dir, hex+".clbin")
}

// store persists one entry (best effort — a read-only cache directory
// degrades to memory-only, it does not fail jobs). The write goes
// through a temp file + rename so a crashed daemon never leaves a
// half-written binary that load would then reject.
func (c *Cache) store(e *Entry) {
	if c.dir == "" {
		return
	}
	tmp, err := os.CreateTemp(c.dir, ".clbin-*")
	if err != nil {
		return
	}
	enc := gob.NewEncoder(tmp)
	if err := enc.Encode(e); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	_ = os.Rename(tmp.Name(), c.path(e.ID))
}

// load reads one persisted entry back and verifies its content
// address, so a corrupted or mismatched binary is recompiled instead
// of executed.
func (c *Cache) load(id string) (*Entry, error) {
	if c.dir == "" {
		return nil, os.ErrNotExist
	}
	f, err := os.Open(c.path(id))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var e Entry
	if err := gob.NewDecoder(f).Decode(&e); err != nil {
		return nil, fmt.Errorf("progcache: corrupt binary for %s: %w", id, err)
	}
	if e.ID != id || entryID(&e) != id || e.Prog == nil || !e.Analyzed {
		return nil, fmt.Errorf("progcache: binary for %s fails verification", id)
	}
	if e.EngineTier != CurrentEngineTier {
		return nil, fmt.Errorf("progcache: binary for %s is engine tier %d, need %d; recompiling", id, e.EngineTier, CurrentEngineTier)
	}
	return &e, nil
}
