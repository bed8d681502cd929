package hashing

// This file implements folded path history for geometric-history predictors
// (ITTAGE): histories far wider than 64 bits, XOR-folded down to a table
// index width. Two forms are provided and pinned equal by tests and the
// ppmcheck differential oracle:
//
//   - FoldWords folds a multi-word history register from scratch — the
//     specification form, used by the naive references and by snapshot
//     restore;
//   - Folded maintains the same fold incrementally, two constant rotations
//     per history push (plus two single-item folds when an item is wider
//     than the fold) — the circular-shift-register idiom of the TAGE/ITTAGE
//     hardware designs, used on the hot path.
//
// The folding function is Φ(X) = XOR of successive out-bit chunks of X
// (what Fold computes for a single word). Φ is linear over XOR and commutes
// with shifts as rotations: Φ(X<<s) = RotL(Φ(X), s, out), because bit p of
// X lands at position p+s and therefore at folded position (p+s) mod out.
// Those two identities are all the incremental form needs.

// RotL rotates the out low-order bits of v left by r positions; bits shifted
// past position out-1 re-enter at position 0. r may exceed out (it is
// reduced modulo out) and out must be in [1, 64].
//
//ppm:hotpath per-lookup index-hash helper; runs once per table probe
func RotL(v uint64, r, out uint) uint64 {
	v = Select(v, out)
	r %= out
	if r == 0 {
		return v
	}
	return ((v << r) | (v >> (out - r))) & Mask(out)
}

// FoldWords XOR-folds the in low-order bits of a little-endian multi-word
// value into out bits: word w occupies bit positions [64w, 64w+64), and each
// bit p contributes to folded bit p mod out. For in <= 64 over a one-word
// slice this is exactly Fold. out must be in [1, 64].
//
//ppm:hotpath per-lookup index-hash helper; runs once per table probe
func FoldWords(words []uint64, in, out uint) uint64 {
	var folded uint64
	off := uint(0)
	for _, w := range words {
		if off >= in {
			break
		}
		chunk := in - off
		if chunk > 64 {
			chunk = 64
		}
		folded ^= RotL(Fold(w, chunk, out), off, out)
		off += 64
	}
	return folded
}

// Folded is an incrementally maintained XOR-fold of a sliding window of
// history items: the fold of the most recent `window` items of a stream,
// each contributing bitsPer bits, newest item in the lowest bit positions.
// Its Value always equals FoldWords over the equivalent packed register —
// the invariant that lets a predictor with a 128-bit geometric history pay
// O(1) per push instead of refolding the whole register per lookup.
//
// Everything about the geometry is reduced at construction: the two
// rotations an update applies become shift pairs and the output mask a
// constant, so Update is straight-line shifts and XORs, plus fold rounds
// only when an item is wider than the fold.
//
// The zero value is a fold of an all-zero window, which matches a path
// history register that powers up zeroed.
type Folded struct {
	comp uint64
	mask uint64 // Mask(out)
	item uint64 // Mask(bits): the history bits of one item
	bits uint   // bits contributed per item
	out  uint   // folded width
	// The register rotates left by bits%out per push (shl, with shr =
	// out-shl the matching right shift) and the outgoing item enters at
	// folded position (window*bits)%out (rotl, with rotr = out-rotl). A
	// right shift by out clears a value that fits in out bits, so a zero
	// rotation needs no special case.
	shl, shr   uint
	rotl, rotr uint
}

// NewFolded returns a folded register over a window of the given item count,
// with bitsPer history bits per item, folded to out bits. Panics if window
// < 1, bitsPer is 0 or > 64, or out is not in [1, 64].
func NewFolded(window int, bitsPer, out uint) Folded {
	if window < 1 {
		panic("hashing: folded window must be >= 1")
	}
	if bitsPer == 0 || bitsPer > 64 {
		panic("hashing: folded bitsPer must be in [1, 64]")
	}
	if out == 0 || out > 64 {
		panic("hashing: folded output width must be in [1, 64]")
	}
	shl, rot := bitsPer%out, (uint(window)*bitsPer)%out
	return Folded{
		mask: Mask(out),
		item: Mask(bitsPer),
		bits: bitsPer,
		out:  out,
		shl:  shl,
		shr:  out - shl,
		rotl: rot,
		rotr: out - rot,
	}
}

// Out returns the folded output width in bits.
func (f *Folded) Out() uint { return f.out }

// Update advances the fold by one history push: newest is the item entering
// the window and outgoing the item leaving it (the one that was `window`-1
// positions deep before the push). Items wider than bitsPer bits are
// truncated to bitsPer before folding.
//
// Derivation: the packed window register advances as
// packed' = ((packed << bits) | newest) ^ (outgoing << window*bits), and Φ
// distributes over each term as a rotation.
//
//ppm:hotpath per-record folded-history shift; runs once per bank per push
func (f *Folded) Update(newest, outgoing uint64) {
	// Fold both items at once; an item no wider than the fold takes no
	// round.
	n, o := newest&f.item, outgoing&f.item
	for s := f.out; s < f.bits; s <<= 1 {
		n ^= n >> (s & 63)
		o ^= o >> (s & 63)
	}
	// Bits of n and of the rotated register past out fall to the final
	// mask; o is masked first, since its rotation brings high bits down.
	o &= f.mask
	c := f.comp
	f.comp = (c<<f.shl | c>>f.shr ^ n ^ (o<<f.rotl | o>>f.rotr)) & f.mask
}

// Value returns the current folded history.
//
//ppm:hotpath per-lookup index-hash helper; runs once per table probe
func (f *Folded) Value() uint64 { return f.comp }

// Reset clears the fold to the all-zero-window state.
func (f *Folded) Reset() { f.comp = 0 }

// Set overwrites the folded value; snapshot restore paths use it to reseed
// the register from a from-scratch FoldWords over the restored history.
func (f *Folded) Set(v uint64) { f.comp = v & f.mask }
