package predictor

import (
	"math"

	"repro/internal/counter"
	"repro/internal/state"
)

// Walk implements state.Snapshotter. Entries travel in insertion order —
// the semantic order of the FIFO eviction queue — never table order, so
// repeated saves of the same state are byte-identical. Loading clears the
// table and refills it in snapshot order, growing it only when the
// snapshot's population needs more slots than it has, so a steady-state
// load into a same-population BIU does not allocate.
func (b *BIU) Walk(c *state.Codec) {
	c.Begin(state.SecBIU)
	c.MatchU8(uint8(b.mode))
	c.Match(uint64(b.limit))
	if c.Loading() {
		b.Reset()
	}
	c.U64(&b.evictions)
	n, limit := len(b.order), b.limit
	if limit == 0 {
		limit = math.MaxInt
	}
	c.Int(&n, limit)
	for i := 0; i < n && c.Err() == nil; i++ {
		var pc uint64
		if !c.Loading() {
			pc = b.order[i]
		}
		var s *biuSlot
		if c.U64(&pc); c.Loading() {
			s = b.insert(pc)
		} else {
			s = b.find(pc)
		}
		if s == nil {
			c.Corrupt("BIU pc %#x duplicated", pc)
			break
		}
		c.Bool(&s.MT)
		s.Sel.Walk(c)
	}
	c.End()
}

// insert appends pc to a table being loaded and returns its fresh slot, or
// nil when pc is already present.
func (b *BIU) insert(pc uint64) *biuSlot {
	if 2*(len(b.order)+1) > len(b.slots) {
		b.resize(2 * len(b.slots)) // only when the snapshot outgrows the live table
	}
	s := b.find(pc)
	if s.used {
		return nil
	}
	*s = biuSlot{pc: pc, used: true, BIUEntry: BIUEntry{Sel: counter.NewSelection(b.mode)}}
	b.order = append(b.order, pc)
	return s
}

var _ state.Snapshotter = (*BIU)(nil)
