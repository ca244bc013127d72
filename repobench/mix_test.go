package main

import (
	"slices"
	"testing"

	"maligo"
)

// cycles draws n full mix cycles from a fresh client.
func cycles(seed int64, id, n, kernels int) [][]int {
	c := newMixClient(seed, id)
	var out [][]int
	for i := 0; i < n; i++ {
		var cycle []int
		for j := 0; j < kernels; j++ {
			cycle = append(cycle, c.next(kernels))
		}
		out = append(out, cycle)
	}
	return out
}

func TestMixSendsEachKernelOncePerCycle(t *testing.T) {
	const kernels = 9
	for _, cycle := range cycles(42, 0, 20, kernels) {
		sorted := slices.Clone(cycle)
		slices.Sort(sorted)
		for k := 0; k < kernels; k++ {
			if sorted[k] != k {
				t.Fatalf("cycle %v does not send each of %d kernels once", cycle, kernels)
			}
		}
	}
}

func TestMixOrderFollowsTheSeed(t *testing.T) {
	a, b := cycles(7, 1, 5, 9), cycles(7, 1, 5, 9)
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			t.Fatalf("seed 7 gave %v, then %v", a, b)
		}
	}
	other := cycles(8, 1, 5, 9)
	client0 := cycles(7, 0, 5, 9)
	if slices.EqualFunc(a, other, slices.Equal[[]int]) || slices.EqualFunc(a, client0, slices.Equal[[]int]) {
		t.Error("another seed or another client drew the same five cycles")
	}
	if slices.EqualFunc(a[:1], a[1:2], slices.Equal[[]int]) && slices.EqualFunc(a[1:2], a[2:3], slices.Equal[[]int]) {
		t.Error("the order is not reshuffled per cycle")
	}
}

func TestColdSaltsGiveDistinctPrograms(t *testing.T) {
	specs := maligo.JobMixSpecs()
	ids := map[string]string{}
	for _, s := range specs {
		ids[maligo.JobProgramID(s.Source, s.Options)] = "unsalted " + s.Kernel
	}
	for _, seed := range []int64{1, 2} {
		for id := 0; id < serveClients; id++ {
			c := newMixClient(seed, id)
			for i := 0; i < 5*len(specs); i++ {
				s := specs[c.next(len(specs))]
				src := salted(s.Source, seed, id, c.seq)
				pid := maligo.JobProgramID(src, s.Options)
				if prev, dup := ids[pid]; dup {
					t.Fatalf("seed %d client %d request %d (%s) repeats the program of %s", seed, id, c.seq, s.Kernel, prev)
				}
				ids[pid] = s.Kernel
			}
		}
	}
}
