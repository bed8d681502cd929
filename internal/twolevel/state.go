package twolevel

import "repro/internal/state"

// Walk implements state.Snapshotter. The LRU clock and per-entry stamps
// travel with the entries: true-LRU victim choice is part of the
// predictor's observable behaviour, so a restored table must replay the
// exact replacement sequence the uncut run would have.
func (t *PHT) Walk(c *state.Codec) {
	c.Begin(state.SecPHT)
	c.Match(uint64(len(t.sets)))
	c.Match(uint64(t.assoc))
	c.MatchBool(t.tagged)
	c.MatchBool(t.useful)
	if t.useful {
		c.Match(t.resetPeriod)
	}
	c.U64(&t.clock)
	for _, set := range t.sets {
		if c.Loading() {
			clear(set)
		}
		for i := range set {
			if e := &set[i]; c.Bool(&e.valid) {
				c.U64Max(&e.tag, t.maxTag)
				c.U64(&e.target)
				e.hyst.Walk(c)
				c.U64(&e.lru)
				if t.useful {
					c.U8Max(&e.u, phtUMax)
				}
			}
		}
	}
	c.End()
}

// Walk implements state.Snapshotter: the configuration fingerprint
// followed by every PHT and the history register.
func (g *GAp) Walk(c *state.Codec) {
	c.Begin(state.SecGAp)
	c.Match(uint64(g.cfg.Entries))
	c.Match(uint64(g.cfg.PHTs))
	c.Match(uint64(maxInt(1, g.cfg.Assoc)))
	c.MatchBool(g.cfg.Tagged)
	c.Match(uint64(g.cfg.PathLength))
	c.Match(uint64(g.cfg.BitsPerTarget))
	c.MatchU8(uint8(g.cfg.HistoryStream))
	c.MatchU8(uint8(g.cfg.Indexing))
	c.Match(uint64(g.histBits))
	c.MatchBool(g.cfg.Useful)
	if g.cfg.Useful {
		c.Match(g.cfg.UsefulResetPeriod)
	}
	c.End()
	for _, t := range g.tables {
		t.Walk(c)
	}
	g.hist.Walk(c)
}

// Walk implements state.Snapshotter.
func (t *TargetCache) Walk(c *state.Codec) {
	c.Begin(state.SecTargetCache)
	c.Match(uint64(t.cfg.Entries))
	c.Match(uint64(t.cfg.HistoryBits))
	c.Match(uint64(t.cfg.BitsPerTarget))
	c.MatchU8(uint8(t.cfg.HistoryStream))
	c.MatchBool(t.cfg.Tagged)
	if c.Loading() {
		clear(t.table)
	}
	for i := range t.table {
		if e := &t.table[i]; c.Bool(&e.valid) {
			c.U64Max(&e.tag, 1<<tcTagBits-1)
			c.U64(&e.target)
		}
	}
	c.End()
	t.hist.Walk(c)
}

// Walk implements state.Snapshotter: the selector section followed by the
// short and long components.
func (d *DualPath) Walk(c *state.Codec) {
	c.Begin(state.SecDualPath)
	c.Match(uint64(len(d.selectors)))
	for i := range d.selectors {
		c.U8Max(&d.selectors[i], 3) // 2-bit tournament counter
	}
	c.End()
	d.short.Walk(c)
	d.long.Walk(c)
}

var (
	_ state.Snapshotter = (*PHT)(nil)
	_ state.Snapshotter = (*GAp)(nil)
	_ state.Snapshotter = (*TargetCache)(nil)
	_ state.Snapshotter = (*DualPath)(nil)
)
