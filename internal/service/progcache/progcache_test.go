package progcache

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"maligo/internal/clc/analysis"
	"maligo/internal/job"
)

func TestCompileHitAndLRU(t *testing.T) {
	c, err := New(2, "")
	if err != nil {
		t.Fatal(err)
	}
	specs := job.MixSpecs()
	e1, hit, err := c.GetOrCompile(specs[0].Source, specs[0].Options)
	if err != nil || hit {
		t.Fatalf("first compile: hit=%v err=%v", hit, err)
	}
	if _, hit, _ = c.GetOrCompile(specs[0].Source, specs[0].Options); !hit {
		t.Fatal("repeat compile not a hit")
	}
	if e1.ID != job.ProgramID(specs[0].Source, specs[0].Options) {
		t.Fatal("entry ID mismatch")
	}
	// Fill beyond the bound; entry 0 must be evicted (memory-only).
	if _, _, err := c.GetOrCompile(specs[1].Source, specs[1].Options); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.GetOrCompile(specs[2].Source, specs[2].Options); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, ok := c.Get(e1.ID); ok {
		t.Fatal("evicted entry still resident with no disk backing")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 3 {
		t.Fatalf("stats = %d/%d, want 1 hit / 3 misses", hits, misses)
	}
}

// TestDiskPersistenceBitIdentical proves the gob "binary" round-trip
// is execution-equivalent: a program reloaded from disk by a second
// cache yields byte-identical job results.
func TestDiskPersistenceBitIdentical(t *testing.T) {
	dir := t.TempDir()
	spec := job.MixSpecs()[1] // vecop

	c1, err := New(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	e1, hit, err := c1.GetOrCompile(spec.Source, spec.Options)
	if err != nil || hit {
		t.Fatalf("compile: hit=%v err=%v", hit, err)
	}

	// A fresh cache over the same directory must load without compiling.
	c2, err := New(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	e2, hit, err := c2.GetOrCompile(spec.Source, spec.Options)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("disk reload did not count as a hit")
	}

	rt := job.NewRuntime(job.Config{Workers: 2})
	defer rt.Close()
	r1, err := rt.RunCompiled(spec, e1.Prog)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := rt.RunCompiled(spec, e2.Prog)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(r1)
	j2, _ := json.Marshal(r2)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("disk-reloaded program diverged:\n%s\n%s", j1, j2)
	}
}

func TestCorruptBinaryRejected(t *testing.T) {
	dir := t.TempDir()
	spec := job.MixSpecs()[0]
	c, err := New(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.GetOrCompile(spec.Source, spec.Options); err != nil {
		t.Fatal(err)
	}
	id := job.ProgramID(spec.Source, spec.Options)

	// Truncate the binary, then force a disk reload via a fresh cache.
	if err := writeFile(c.path(id), []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	c2, err := New(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(id); ok {
		t.Fatal("corrupt binary accepted")
	}
	// GetOrCompile must recover by recompiling.
	if _, hit, err := c2.GetOrCompile(spec.Source, spec.Options); err != nil || hit {
		t.Fatalf("recompile after corruption: hit=%v err=%v", hit, err)
	}
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// TestDiagnosticsPersist proves the analyzer's findings ride the gob
// binary: a fresh cache over the same directory serves the identical
// diagnostics without re-running the analyzer, and a stale pre-tier-2
// binary (no analysis baked in) fails verification and recompiles.
func TestDiagnosticsPersist(t *testing.T) {
	const racy = `__kernel void racy(__global float *out, __local float *tile) {
    int lid = get_local_id(0);
    tile[lid] = (float)lid;
    out[get_global_id(0)] = tile[lid + 1];
}
`
	dir := t.TempDir()
	c1, err := New(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	e1, hit, err := c1.GetOrCompile(racy, "")
	if err != nil || hit {
		t.Fatalf("compile: hit=%v err=%v", hit, err)
	}
	if !e1.Analyzed || len(e1.Diags) == 0 {
		t.Fatalf("compile did not attach diagnostics: analyzed=%v n=%d", e1.Analyzed, len(e1.Diags))
	}
	if e1.MaxSeverity() != analysis.Error {
		t.Fatalf("MaxSeverity = %v, want Error", e1.MaxSeverity())
	}

	c2, err := New(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	e2, hit, err := c2.GetOrCompile(racy, "")
	if err != nil || !hit {
		t.Fatalf("disk reload: hit=%v err=%v", hit, err)
	}
	j1, _ := json.Marshal(e1.Diags)
	j2, _ := json.Marshal(e2.Diags)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("reloaded diagnostics diverged:\n%s\n%s", j1, j2)
	}

	// Simulate a pre-tier-2 binary: same entry, Analyzed stripped.
	id := job.ProgramID(racy, "")
	stale := *e1
	stale.Analyzed = false
	stale.Diags = nil
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&stale); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(c1.path(id), buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	c3, err := New(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c3.Get(id); ok {
		t.Fatal("unanalyzed binary accepted")
	}
	e3, hit, err := c3.GetOrCompile(racy, "")
	if err != nil || hit {
		t.Fatalf("recompile of stale binary: hit=%v err=%v", hit, err)
	}
	if !e3.Analyzed || len(e3.Diags) == 0 {
		t.Fatal("recompiled entry missing diagnostics")
	}
}

// TestEngineTierSkewRecompiles proves the engine-generation stamp
// gates disk reloads: a binary persisted by a pre-tier-3 daemon (its
// gob carries no EngineTier field, decoding as tier 0) fails
// verification and is recompiled, while a freshly stamped binary
// round-trips. This is how a cache directory survives engine upgrades
// without serving programs whose IR predates the current tier's
// contract.
func TestEngineTierSkewRecompiles(t *testing.T) {
	dir := t.TempDir()
	spec := job.MixSpecs()[0]
	c1, err := New(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	e1, hit, err := c1.GetOrCompile(spec.Source, spec.Options)
	if err != nil || hit {
		t.Fatalf("compile: hit=%v err=%v", hit, err)
	}
	if e1.EngineTier != CurrentEngineTier {
		t.Fatalf("fresh entry EngineTier = %d, want %d", e1.EngineTier, CurrentEngineTier)
	}

	// A second cache over the same directory serves the stamped binary.
	c2, err := New(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, hit, err := c2.GetOrCompile(spec.Source, spec.Options); err != nil || !hit {
		t.Fatalf("disk reload of current-tier binary: hit=%v err=%v", hit, err)
	}

	// Rewrite the binary as an older daemon would have produced it:
	// same program, earlier (or absent) engine tier.
	id := job.ProgramID(spec.Source, spec.Options)
	for _, tier := range []int{0, CurrentEngineTier - 1} {
		stale := *e1
		stale.EngineTier = tier
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&stale); err != nil {
			t.Fatal(err)
		}
		if err := writeFile(c1.path(id), buf.Bytes()); err != nil {
			t.Fatal(err)
		}
		c3, err := New(8, dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := c3.Get(id); ok {
			t.Fatalf("tier-%d binary accepted by tier-%d daemon", tier, CurrentEngineTier)
		}
		e3, hit, err := c3.GetOrCompile(spec.Source, spec.Options)
		if err != nil || hit {
			t.Fatalf("recompile of tier-%d binary: hit=%v err=%v", tier, hit, err)
		}
		if e3.EngineTier != CurrentEngineTier {
			t.Fatalf("recompiled entry EngineTier = %d, want %d", e3.EngineTier, CurrentEngineTier)
		}
	}
}

// loopSrc is transformable (unit-stride inner loop); the optimized
// entry's pass list must be non-empty.
const loopSrc = `__kernel void saxpy(__global float* restrict y,
                    __global const float* restrict x,
                    float a, int n) {
	int g = get_global_id(0);
	int base = g * n;
	for (int i = 0; i < n; i++) {
		y[base + i] = a * x[base + i] + y[base + i];
	}
}
`

// TestOptimizedEntryDistinctAddresses: one GetOrCompileOptimized call
// caches the plain compile and the transform output side by side under
// distinct content addresses, both persist to disk, and a flipped
// Optimized flag fails content-address verification on reload.
func TestOptimizedEntryDistinctAddresses(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	e, hit, err := c1.GetOrCompileOptimized(loopSrc, "")
	if err != nil || hit {
		t.Fatalf("optimized compile: hit=%v err=%v", hit, err)
	}
	optID, plainID := OptimizedID(loopSrc, ""), job.ProgramID(loopSrc, "")
	if optID == plainID {
		t.Fatal("optimized and plain content addresses collide")
	}
	if e.ID != optID || !e.Optimized || len(e.OptPasses) == 0 {
		t.Fatalf("optimized entry malformed: id=%q optimized=%v passes=%v", e.ID, e.Optimized, e.OptPasses)
	}
	plain, ok := c1.Get(plainID)
	if !ok {
		t.Fatal("plain compile not cached beside the optimized entry")
	}
	if plain.Optimized || len(plain.OptPasses) != 0 {
		t.Fatal("plain entry carries transform state")
	}
	// The optimized entry's diagnostics are the plain program's: the
	// admission gate judges the program as written.
	if len(e.Diags) != len(plain.Diags) {
		t.Fatalf("optimized entry diags (%d) diverge from plain (%d)", len(e.Diags), len(plain.Diags))
	}

	// Disk round trip: a fresh cache reloads both without compiling.
	c2, err := New(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	e2, hit, err := c2.GetOrCompileOptimized(loopSrc, "")
	if err != nil || !hit {
		t.Fatalf("reload: hit=%v err=%v", hit, err)
	}
	if e2.ID != optID || !e2.Optimized ||
		fmt.Sprint(e2.OptPasses) != fmt.Sprint(e.OptPasses) {
		t.Fatalf("reloaded optimized entry differs: %+v", e2)
	}

	// An entry whose Optimized flag disagrees with its address must
	// fail verification (entryID recomputation), not execute.
	var tampered Entry
	f, err := os.Open(c2.path(optID))
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(f).Decode(&tampered); err != nil {
		t.Fatal(err)
	}
	f.Close()
	tampered.Optimized = false
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&tampered); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(c2.path(optID), buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	c3, err := New(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c3.Get(optID); ok {
		t.Fatal("entry with mismatched Optimized flag accepted")
	}
	if _, hit, err := c3.GetOrCompileOptimized(loopSrc, ""); err != nil || hit {
		t.Fatalf("recompile after tamper: hit=%v err=%v", hit, err)
	}
}

// TestStatsMatchReturnedHit: every GetOrCompile* call counts exactly
// one hit or one miss, and it is the hit the call returns — the value
// malid reports in X-Malid-Cache — for each order of plain and
// optimizing calls, from memory and from disk.
func TestStatsMatchReturnedHit(t *testing.T) {
	type call struct {
		optimized bool
		fresh     bool // a new cache over the same directory first
		wantHit   bool
	}
	cases := []struct {
		name  string
		src   string
		calls []call
	}{
		{"plain then optimized", loopSrc, []call{{false, false, false}, {true, false, false}}},
		{"optimized then plain", loopSrc, []call{{true, false, false}, {false, false, true}}},
		{"optimized memory hit", loopSrc, []call{{true, false, false}, {true, false, true}}},
		{"optimized disk reload", loopSrc, []call{{true, false, false}, {true, true, true}}},
		{"plain disk reload then optimized", loopSrc, []call{{false, false, false}, {false, true, true}, {true, false, false}}},
		{"build failure", "__kernel void broken(", []call{{true, false, false}, {false, false, false}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := New(8, dir)
			if err != nil {
				t.Fatal(err)
			}
			var wantHits, wantMisses uint64 // expected Stats of c
			for i, step := range tc.calls {
				if step.fresh {
					if c, err = New(8, dir); err != nil {
						t.Fatal(err)
					}
					wantHits, wantMisses = 0, 0
				}
				get := c.GetOrCompile
				if step.optimized {
					get = c.GetOrCompileOptimized
				}
				_, hit, _ := get(tc.src, "")
				if hit != step.wantHit {
					t.Fatalf("call %d: hit = %v, want %v", i, hit, step.wantHit)
				}
				if hit {
					wantHits++
				} else {
					wantMisses++
				}
				if hits, misses := c.Stats(); hits != wantHits || misses != wantMisses {
					t.Fatalf("after call %d: stats = %d hits / %d misses, want %d / %d",
						i, hits, misses, wantHits, wantMisses)
				}
			}
		})
	}
}
