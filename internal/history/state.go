package history

import "repro/internal/state"

// SaveState appends the register's contents as a snapshot section. The
// names avoid the in-memory Snapshot/Restore(State) pair above, which the
// workload generator uses for cheap intra-process rewinds; this pair is the
// durable binary form.
func (p *PHR) SaveState(w *state.Writer) {
	w.Begin(state.SecPHR)
	w.U8(uint8(p.stream))
	w.U64(uint64(len(p.ring)))
	w.U64(uint64(p.bitsPer))
	w.U64(uint64(p.packedBits))
	w.U64(uint64(p.head))
	w.U64(uint64(p.Len()))
	// One word per 64 bits of packed register, low word first. Registers of
	// 64 bits or fewer serialize exactly one word — the original encoding —
	// and a zero-width register keeps its single placeholder word so the
	// byte layout of every pre-multi-word snapshot is unchanged.
	if len(p.packed) == 0 {
		w.U64(0)
	}
	top := len(p.packed) - 1
	for i, t := range p.packed {
		if i == top {
			t &= p.topMask
		}
		w.U64(t)
	}
	for _, t := range p.ring {
		w.U64(t)
	}
	w.End()
}

// LoadState rebuilds the register in place from a SaveState section,
// validating the configuration fingerprint and every positional field.
func (p *PHR) LoadState(r *state.Reader) error {
	if err := r.Begin(state.SecPHR); err != nil {
		return err
	}
	stream := Stream(r.U8())
	depth := r.U64()
	bitsPer := r.U64()
	packedBits := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if stream != p.stream || depth != uint64(len(p.ring)) || bitsPer != uint64(p.bitsPer) || packedBits != uint64(p.packedBits) {
		return state.Mismatchf("PHR %v/%d/%d/%d vs snapshot %v/%d/%d/%d",
			p.stream, len(p.ring), p.bitsPer, p.packedBits, stream, depth, bitsPer, packedBits)
	}
	head := r.U64()
	filled := r.U64()
	var packed0 uint64
	if len(p.packed) == 0 {
		packed0 = r.U64() // zero-width placeholder word
	}
	// Like the ring below, the packed words land in place before the final
	// error check: a failed restore leaves the register unspecified, which
	// every caller already handles by discarding the predictor.
	for i := range p.packed {
		p.packed[i] = r.U64()
	}
	if err := r.Err(); err != nil {
		return err
	}
	if head >= depth || filled > depth {
		return state.Corruptf("PHR head %d / filled %d out of range for depth %d", head, filled, depth)
	}
	if len(p.packed) == 0 && packed0 != 0 {
		return state.Corruptf("PHR zero-width packed register holds %#x", packed0)
	}
	if n := len(p.packed); n > 0 && p.packed[n-1]&^p.topMask != 0 {
		return state.Corruptf("PHR packed top word %#x exceeds %d-bit register", p.packed[n-1], p.packedBits)
	}
	for i := range p.ring {
		p.ring[i] = r.U64()
	}
	if err := r.End(); err != nil {
		return err
	}
	p.head = int(head)
	p.pushes = int(filled)
	return nil
}
