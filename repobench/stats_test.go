package main

import "testing"

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75},
		{99, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {1 << 20, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// TestWorkloadTailsFollowTheRule pins each workload's tail percentile
// to the rule at its baseline samples per block, measured on the 2-CPU
// reference host. Re-derive them when the baseline moves.
func TestWorkloadTailsFollowTheRule(t *testing.T) {
	perBlock := map[string]int{
		"sweep":      70,                                                 // supported cells per sweep
		"serve-cold": int(21 * float64(readBenchmarkJSON(t).RunSeconds)), // one block per run at the slowest measured ≈21 req/s
	}
	for name, w := range workloads {
		if got := tailPercentile(perBlock[name]); got != w.tailPct {
			t.Errorf("%s: %d samples per block allow p%v, the workload reports p%v", name, perBlock[name], got, w.tailPct)
		}
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ q, want float64 }{{0.25, 3}, {0.5, 5}, {0.75, 8}, {0.9, 9}, {0.99, 10}, {1, 10}} {
		if got := quantile(s, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}
