package bench_test

import (
	"bytes"
	"reflect"
	"testing"

	"maligo/internal/bench"
	"maligo/internal/platform"
	"maligo/internal/vm"
)

// compareRuns requires two runs' observables to be bit-identical:
// unified-memory image, event timestamps and device reports, and the
// exported timeline. Metrics snapshots are compared only when
// withMetrics is set — the worker-pool gauges legitimately reflect
// the worker count, so cross-worker comparisons exclude them.
func compareRuns(t *testing.T, label string, ref, got engineRun, withMetrics bool) {
	t.Helper()
	if !bytes.Equal(ref.arena, got.arena) {
		diff := -1
		for i := range ref.arena {
			if ref.arena[i] != got.arena[i] {
				diff = i
				break
			}
		}
		t.Errorf("%s: arena contents differ (first at byte %d of %d)", label, diff, len(ref.arena))
	}
	if len(ref.events) != len(got.events) {
		t.Fatalf("%s: event count differs: %d vs %d", label, len(ref.events), len(got.events))
	}
	for i := range ref.events {
		if !reflect.DeepEqual(ref.events[i], got.events[i]) {
			t.Errorf("%s: event %d differs:\n ref: %+v\n got: %+v", label, i, ref.events[i], got.events[i])
		}
	}
	if withMetrics && !reflect.DeepEqual(ref.metrics, got.metrics) {
		t.Errorf("%s: metrics snapshots differ:\n ref: %+v\n got: %+v", label, ref.metrics, got.metrics)
	}
	if !reflect.DeepEqual(ref.timeline, got.timeline) {
		t.Errorf("%s: timeline spans differ:\n ref: %+v\n got: %+v", label, ref.timeline, got.timeline)
	}
}

// TestFleetDifferential extends the engine differential into the
// device dimension: every registered board model runs every benchmark
// under both engines, and on a given device every observable
// must be bit-identical across engines (the interpreter is the
// oracle) and across host worker counts on the fast path. A model
// whose numbers leak host state or engine choice into simulated
// observables fails here for every kernel at once.
func TestFleetDifferential(t *testing.T) {
	names := bench.Names()
	if testing.Short() {
		// The cross-section with atomics (hist), barriers/local memory
		// (2dcon) and multi-pass reductions (red).
		names = []string{"hist", "2dcon", "red"}
	}
	for _, dev := range platform.Names() {
		soc, err := platform.Lookup(dev)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			t.Run(dev+"/"+name, func(t *testing.T) {
				ref := runUnderEngineOn(t, soc, 1, name, bench.F32, vm.EngineInterp)
				got := runUnderEngineOn(t, soc, 1, name, bench.F32, vm.EngineCompiled)
				compareRuns(t, "compiled", ref, got, true)
				// Worker-count invariance: sharding the NDRange across 4
				// host workers must not move a single simulated bit.
				w4 := runUnderEngineOn(t, soc, 4, name, bench.F32, vm.EngineCompiled)
				w1 := runUnderEngineOn(t, soc, 1, name, bench.F32, vm.EngineCompiled)
				compareRuns(t, "workers=4 vs 1", w1, w4, false)
			})
		}
	}
}
