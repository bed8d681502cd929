package btb

import "repro/internal/state"

// Walk implements state.Snapshotter. Invalid entries collapse to their
// valid bit, so snapshot size tracks occupancy; loading clears the table
// first, since a load displaces and never merges.
func (b *BTB) Walk(c *state.Codec) {
	c.Begin(state.SecBTB)
	c.MatchBool(b.hysteresis)
	c.Match(uint64(len(b.entries)))
	if c.Loading() {
		clear(b.entries)
	}
	for i := range b.entries {
		if e := &b.entries[i]; c.Bool(&e.valid) {
			c.U64(&e.target)
			e.hyst.Walk(c)
		}
	}
	c.End()
}

var _ state.Snapshotter = (*BTB)(nil)
