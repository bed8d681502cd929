package predictor

import (
	"repro/internal/counter"
	"repro/internal/state"
)

// SaveState appends the BIU contents as a snapshot section. Entries are
// written in insertion order — the semantic order of the FIFO eviction
// queue — never table order, so repeated snapshots of the same state are
// byte-identical.
func (b *BIU) SaveState(w *state.Writer) {
	w.Begin(state.SecBIU)
	w.U8(uint8(b.mode))
	w.U64(uint64(b.limit))
	w.U64(b.evictions)
	w.U64(uint64(len(b.order)))
	for _, pc := range b.order {
		e := b.find(pc)
		w.U64(pc)
		w.Bool(e.MT)
		w.U8(e.Sel.State())
	}
	w.End()
}

// LoadState rebuilds the BIU in place from a SaveState section: the table
// is cleared and refilled in snapshot order, growing only when the
// snapshot's population needs more slots than it has, so a steady-state
// restore into a same-population BIU does not allocate.
func (b *BIU) LoadState(r *state.Reader) error {
	if err := r.Begin(state.SecBIU); err != nil {
		return err
	}
	mode := counter.SelectionMode(r.U8())
	limit := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if mode != b.mode || limit != uint64(b.limit) {
		return state.Mismatchf("BIU %v/limit %d vs snapshot %v/limit %d", b.mode, b.limit, mode, limit)
	}
	evictions := r.U64()
	n := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if b.limit > 0 && n > uint64(b.limit) {
		return state.Corruptf("BIU carries %d entries over limit %d", n, b.limit)
	}
	b.Reset()
	for i := uint64(0); i < n; i++ {
		pc := r.U64()
		mt := r.Bool()
		raw := r.U8()
		if err := r.Err(); err != nil {
			return err
		}
		sel, ok := counter.SelectionFromState(raw, b.mode)
		if !ok {
			return state.Corruptf("BIU selection state %d out of range", raw)
		}
		if 2*(len(b.order)+1) > len(b.slots) {
			b.resize(2 * len(b.slots)) //lint:coldpath — only when the snapshot outgrows the live table
		}
		s := b.find(pc)
		if s.used {
			return state.Corruptf("BIU pc %#x duplicated in snapshot", pc)
		}
		*s = biuSlot{pc: pc, used: true, BIUEntry: BIUEntry{MT: mt, Sel: sel}}
		b.order = append(b.order, pc)
	}
	if err := r.End(); err != nil {
		return err
	}
	b.evictions = evictions
	return nil
}
