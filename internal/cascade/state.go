package cascade

import "repro/internal/state"

// Walk implements state.Snapshotter: the filter section (entries and stage
// statistics) followed by the main Dual-path predictor.
func (c *Cascade) Walk(sc *state.Codec) {
	sc.Begin(state.SecCascade)
	sc.MatchU8(uint8(c.cfg.Policy))
	sc.Match(uint64(len(c.filter)))
	if sc.Loading() {
		clear(c.filter)
	}
	for i := range c.filter {
		if e := &c.filter[i]; sc.Bool(&e.valid) {
			sc.Bool(&e.poly)
			sc.U64Max(&e.tag, 1<<filterTagBits-1)
			sc.U64(&e.target)
			e.hyst.Walk(sc)
		}
	}
	sc.U64(&c.filterServed)
	sc.U64(&c.mainServed)
	sc.U64(&c.promotions)
	sc.End()
	c.main.Walk(sc)
}

var _ state.Snapshotter = (*Cascade)(nil)
