package cbt

import (
	"math"

	"repro/internal/state"
)

// Walk implements state.Snapshotter. The deterministic-availability draw
// counter travels with the tables: the Bernoulli sequence is part of the
// predictor's observable behaviour, so a restored CBT must continue the
// exact draw stream the uncut run would have.
func (c *CBT) Walk(sc *state.Codec) {
	sc.Begin(state.SecCBT)
	sc.Match(uint64(len(c.table)))
	sc.Match(math.Float64bits(c.cfg.Availability))
	sc.Match(c.cfg.Seed)
	for _, t := range [][]entry{c.table, c.fallback} {
		if sc.Loading() {
			clear(t)
		}
		for i := range t {
			if e := &t[i]; sc.Bool(&e.valid) {
				sc.U64(&e.key)
				sc.U64(&e.target)
			}
		}
	}
	sc.U64(&c.draws)
	sc.U64(&c.valueHits)
	sc.U64(&c.lookups)
	sc.End()
}

var _ state.Snapshotter = (*CBT)(nil)
