package main

import (
	"fmt"
	"math/rand"
)

// mixClient is one closed-loop client's position in the seeded request
// stream: it sends every mix kernel once per cycle, in an order drawn
// afresh from its own generator at the start of each cycle.
type mixClient struct {
	id    int
	rng   *rand.Rand
	order []int // kernels still to send in the current cycle
	seq   int   // requests drawn so far
}

func newMixClient(seed int64, id int) *mixClient {
	return &mixClient{id: id, rng: rand.New(rand.NewSource(seed*1_000_003 + int64(id)))}
}

// next returns the mix index of the client's next request among n
// kernels.
func (c *mixClient) next(n int) int {
	if len(c.order) == 0 {
		c.order = c.rng.Perm(n)
	}
	k := c.order[0]
	c.order = c.order[1:]
	c.seq++
	return k
}

// salted appends a comment naming the seed, client and request number,
// so every cold request carries a distinct program (and content
// address) that compiles to the same code. The salt goes last so no
// source line moves.
func salted(source string, seed int64, client, seq int) string {
	return fmt.Sprintf("%s\n// repobench salt seed=%d client=%d seq=%d\n", source, seed, client, seq)
}
