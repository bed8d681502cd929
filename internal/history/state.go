package history

import "repro/internal/state"

// Walk implements state.Snapshotter: the register as one durable section.
func (p *PHR) Walk(c *state.Codec) {
	c.Begin(state.SecPHR)
	c.MatchU8(uint8(p.stream))
	c.Match(uint64(len(p.ring)))
	c.Match(uint64(p.bitsPer))
	c.Match(uint64(p.packedBits))
	c.Int(&p.head, len(p.ring)-1)
	// The wire holds how many targets the register retains; pushes keeps
	// counting past the depth in memory.
	filled := p.Len()
	if c.Int(&filled, len(p.ring)); c.Loading() {
		p.pushes = filled
	}
	// One word per 64 bits of packed register, low word first. Registers of
	// 64 bits or fewer serialize exactly one word — the original encoding —
	// and a zero-width register keeps a single placeholder word, always 0,
	// so the byte layout of every pre-multi-word snapshot is unchanged.
	if len(p.packed) == 0 {
		var placeholder uint64
		c.U64Max(&placeholder, 0)
	}
	for i := range p.packed {
		if i < len(p.packed)-1 {
			c.U64(&p.packed[i])
			continue
		}
		// Push leaves bits past packedBits in the top word; they never
		// travel, and a loaded top word must fit the register.
		top := p.packed[i] & p.topMask
		if c.U64Max(&top, p.topMask); c.Loading() {
			p.packed[i] = top
		}
	}
	c.U64s(p.ring)
	c.End()
}

var _ state.Snapshotter = (*PHR)(nil)
