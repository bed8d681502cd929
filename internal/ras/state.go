package ras

import "repro/internal/state"

// Walk implements state.Snapshotter.
func (s *Stack) Walk(c *state.Codec) {
	c.Begin(state.SecRAS)
	c.Match(uint64(len(s.buf)))
	c.Int(&s.top, len(s.buf))
	// Every store to base stays on the reduced-by-len form Push indexes
	// with; the modulus is a no-op after the bound check.
	base := s.base
	if c.Int(&base, len(s.buf)-1); c.Loading() {
		s.base = base % len(s.buf)
	}
	c.U64(&s.hits)
	c.U64(&s.preds)
	c.U64s(s.buf)
	c.End()
}

var _ state.Snapshotter = (*Stack)(nil)
