package core

import "repro/internal/state"

// This file implements the state.Snapshotter contract for the PPM family.
// Entries are varint-coded with a 1-byte collapse for invalid slots, so a
// snapshot's size tracks table occupancy rather than capacity. Transient
// per-prediction scratch (the pending structs) is never encoded: snapshots
// are taken at record boundaries, where the next Predict rebuilds it.

// walk visits one entry; an invalid entry collapses to its valid bit.
// Loading expects the entry zeroed.
func (e *markovEntry) walk(c *state.Codec) {
	if c.Bool(&e.valid) {
		c.U32(&e.tag)
		c.U64(&e.target)
		e.hyst.Walk(c)
	}
}

// Walk implements state.Snapshotter.
func (t *MarkovTable) Walk(c *state.Codec) {
	c.Begin(state.SecMarkov)
	c.Match(uint64(t.order))
	c.MatchBool(t.tagged)
	if c.Loading() {
		clear(t.entries)
	}
	for i := range t.entries {
		t.entries[i].walk(c)
	}
	c.End()
}

// Walk implements state.Snapshotter: the scalar section (configuration
// fingerprint, order-0 entry, component stats) followed by every Markov
// table, both history registers, and the BIU.
func (p *PPM) Walk(c *state.Codec) {
	c.Begin(state.SecPPM)
	c.Match(uint64(p.cfg.Order))
	c.Match(uint64(p.cfg.TargetBits))
	c.Match(uint64(p.cfg.FoldBits))
	c.MatchU8(uint8(p.cfg.Mode))
	c.MatchBool(p.cfg.LowSelect)
	c.Match(uint64(p.cfg.BIULimit))
	c.MatchBool(p.cfg.Tagged)
	c.MatchU8(p.cfg.ConfidenceThreshold)
	if c.Loading() {
		p.zero = markovEntry{}
		p.pending.sel = nil // points into the BIU table the load rebuilds
	}
	p.zero.walk(c)
	c.U64s(p.stats.Accesses)
	c.U64s(p.stats.Misses)
	c.End()
	for _, t := range p.tables {
		t.Walk(c)
	}
	p.pb.Walk(c)
	p.pib.Walk(c)
	if c.Loading() {
		// The fold rings are derived from the registers and never travel.
		if p.pbFolds != nil {
			p.pbFolds.rebuild(p.pb, p.fold)
		}
		p.pibFolds.rebuild(p.pib, p.fold)
	}
	p.biu.Walk(c)
}

// Walk implements state.Snapshotter: the filter section then the wrapped
// PPM.
func (f *FilteredPPM) Walk(c *state.Codec) {
	c.Begin(state.SecFiltered)
	c.Match(uint64(len(f.filter)))
	if c.Loading() {
		clear(f.filter)
	}
	for i := range f.filter {
		if e := &f.filter[i]; c.Bool(&e.valid) {
			c.U64Max(&e.tag, 1<<filterTagBits-1)
			c.U64(&e.target)
			e.hyst.Walk(c)
		}
	}
	c.U64(&f.filterServed)
	c.U64(&f.ppmServed)
	c.End()
	f.ppm.Walk(c)
}

// Walk implements state.Snapshotter. A valid state carries its n arcs in
// use; loading resets the table first.
func (t *MultiMarkovTable) Walk(c *state.Codec) {
	c.Begin(state.SecMultiMarkov)
	c.Match(uint64(t.order))
	c.Match(uint64(t.k))
	if c.Loading() {
		t.reset()
	}
	for i := range t.entries {
		if e := &t.entries[i]; c.Bool(&e.valid) {
			c.Int(&e.n, t.k)
			for j := range e.slots[:e.n] {
				c.U64(&e.slots[j].target)
				c.U8Max(&e.slots[j].count, mtCountMax)
			}
		}
	}
	c.End()
}

// Walk implements state.Snapshotter: the scalar section, the inner PPM
// (history registers and accounting; its tables stay untrained but travel
// for uniformity), then every multi-target table.
func (m *MultiPPM) Walk(c *state.Codec) {
	c.Begin(state.SecMultiPPM)
	c.Match(uint64(m.inner.Config().Order))
	c.Match(uint64(m.k))
	c.End()
	m.inner.Walk(c)
	for _, t := range m.tables {
		t.Walk(c)
	}
}

var (
	_ state.Snapshotter = (*MarkovTable)(nil)
	_ state.Snapshotter = (*PPM)(nil)
	_ state.Snapshotter = (*FilteredPPM)(nil)
	_ state.Snapshotter = (*MultiMarkovTable)(nil)
	_ state.Snapshotter = (*MultiPPM)(nil)
)
