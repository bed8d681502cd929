package ittage

import "repro/internal/state"

// Walk implements state.Snapshotter: the configuration fingerprint and
// scalar counters, the base table, every tagged bank, then the path history
// register. The per-bank folded registers are deliberately not serialized —
// they are a pure function of the history ring, and loading reseeds them
// from the wide packed register's from-scratch fold, so the incremental and
// specification forms can never drift across a save/load boundary.
func (p *ITTAGE) Walk(c *state.Codec) {
	c.Begin(state.SecITTAGE)
	c.Match(uint64(len(p.base)))
	c.Match(uint64(len(p.banks)))
	c.Match(uint64(p.cfg.BankEntries))
	c.Match(uint64(p.cfg.TagBits))
	c.Match(uint64(p.cfg.MinHist))
	c.Match(uint64(p.cfg.MaxHist))
	c.Match(uint64(p.cfg.BitsPerItem))
	c.Match(p.cfg.ResetPeriod)
	c.MatchU8(uint8(p.hist.Stream()))
	c.U8Max(&p.uaona, uaonaMax)
	c.U64(&p.tick)
	c.U64(&p.uResets)
	if c.Loading() {
		clear(p.base)
		for i := range p.banks {
			clear(p.banks[i].entries)
		}
	}
	for i := range p.base {
		if be := &p.base[i]; c.Bool(&be.valid) {
			c.U64(&be.target)
		}
	}
	tagMask := uint64(1)<<p.cfg.TagBits - 1
	for i := range p.banks {
		es := p.banks[i].entries
		for j := range es {
			if e := &es[j]; c.Bool(&e.valid) {
				c.U64Max(&e.tag, tagMask)
				c.U64(&e.target)
				c.U8Max(&e.ctr, ctrMax)
				c.U8Max(&e.u, uMax)
			}
		}
	}
	c.End()
	p.hist.Walk(c)
	if !c.Loading() {
		return
	}
	for i := range p.banks {
		b := &p.banks[i]
		in := uint(b.histLen) * p.cfg.BitsPerItem
		b.idxFold.Set(p.hist.FoldPacked(in, b.idxFold.Out()))
		b.tagFold.Set(p.hist.FoldPacked(in, b.tagFold.Out()))
		b.tagFold2.Set(p.hist.FoldPacked(in, b.tagFold2.Out()))
	}
}

var _ state.Snapshotter = (*ITTAGE)(nil)
