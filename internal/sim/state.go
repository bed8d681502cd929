package sim

import "repro/internal/state"

// Walk implements state.Snapshotter: the engine's accounting and
// per-predictor counters, the RAS, then every predictor in attachment
// order. Loading requires an engine built over an identically-ordered
// predictor set. Panics if a predictor does not implement
// state.Snapshotter; the oracle (an unbounded measurement device) is the
// one shipped predictor that does not.
func (e *Engine) Walk(c *state.Codec) {
	c.Begin(state.SecEngine)
	c.Match(uint64(len(e.lanes)))
	c.U64(&e.records)
	c.U64(&e.instrs)
	for i := range e.counters {
		n := &e.counters[i]
		c.U64(&n.Lookups)
		c.U64(&n.Correct)
		c.U64(&n.Wrong)
		c.U64(&n.NoPrediction)
	}
	c.End()
	e.ras.Walk(c)
	for _, l := range e.lanes {
		l.p.(state.Snapshotter).Walk(c)
	}
}

var _ state.Snapshotter = (*Engine)(nil)
