// Package hashing implements the index-generation functions used by the
// indirect branch predictors in this repository:
//
//   - gshare XOR indexing (Chang et al., Driesen & Hölzle)
//   - Select-Fold-Shift-XOR (SFSX) from Sazeides & Smith
//   - Select-Fold-Shift-XOR-Select (SFSXS), the paper's Figure 2 mapping
//     function for the PPM Markov predictor stack
//   - reverse-interleaving indexing used by the Dual-path predictor
//
// All functions are pure and allocation-free so they can run in the inner
// simulation loop.
package hashing

import "math/bits"

// Mask returns a mask of the n low-order bits. n must be <= 64.
//
// Branch-free: the shift count is reduced mod 64 so the compiler emits no
// guard, and n>>6 is 1 exactly at n == 64, whose all-ones mask the OR
// supplies.
//
//ppm:hotpath per-lookup index-hash helper; runs once per table probe
func Mask(n uint) uint64 {
	return ^(^uint64(0) << (n & 63)) | -uint64(n>>6)
}

// Select extracts the n low-order bits of v. n must be <= 64.
//
//ppm:hotpath per-lookup index-hash helper; runs once per table probe
func Select(v uint64, n uint) uint64 { return v & Mask(n) }

// Fold XOR-folds the in low-order bits of v into out bits by XORing
// successive out-bit chunks together. If out >= in the value is returned
// masked to in bits; out == 0 yields 0. in must be <= 64.
//
// XORing the value with itself shifted by out, 2*out, 4*out, ... collects
// every out-bit chunk in the low bits, so the loop runs
// ceil(log2(ceil(in/out))) rounds whatever the data (one for the paper's
// 10-into-5 SFSXS fold), and every shift count is reduced mod 64.
//
//ppm:hotpath per-lookup index-hash helper; runs once per table probe
func Fold(v uint64, in, out uint) uint64 {
	v &= Mask(in)
	for s := max(out, 1); s < in; s <<= 1 { // a zero width would never end the rounds
		v ^= v >> (s & 63)
	}
	return v & Mask(out)
}

// GShare forms a bits-wide index by XORing the branch address (shifted right
// by 2 to drop the instruction alignment bits) with the history register.
//
//ppm:hotpath per-lookup index-hash helper; runs once per table probe
func GShare(history, pc uint64, n uint) uint64 {
	return (history ^ (pc >> 2)) & Mask(n)
}

// SFSX computes the Select-Fold-Shift-XOR hash over a path of targets.
// targets[0] is the most recent target. For each target i the selBits
// low-order bits are selected, folded to foldBits bits, shifted left by i,
// and XORed into the accumulator. The conceptual accumulator is
// foldBits+len(targets)-1 bits wide; bit positions past 63 wrap around
// (the shift is a 64-bit rotation), XOR-reducing the wide hash modulo 64
// so every path entry contributes no matter how long the path is. For
// paths where foldBits+len(targets)-1 <= 64 — every configuration in this
// repository — the wrap never engages and the result is the plain
// shift-XOR hash.
//
//ppm:hotpath per-lookup index-hash helper; runs once per table probe
func SFSX(targets []uint64, selBits, foldBits uint) uint64 {
	var h uint64
	for i, t := range targets {
		h ^= bits.RotateLeft64(Fold(t>>2, selBits, foldBits), i&63)
	}
	return h
}

// SFSXS computes the paper's Figure 2 Select-Fold-Shift-XOR-Select index for
// the Markov predictor of the given order. It forms an SFSX-style hash over
// the `order` most recent targets (targets[0] is most recent), with the most
// recent target shifted into the highest bit positions, and selects the
// `order` high-order bits of the (foldBits+order-1)-bit hash. The order-j
// Markov table thus has exactly 2^j entries, its index depends only on the
// j most recent targets (preserving Markov-chain semantics), and the
// selected bits are dominated by the most recent path — without which the
// highest-order component would effectively ignore recent control flow.
//
// If fewer than `order` targets are available the hash is computed over the
// ones present (early-execution warm-up), which matches a hardware PHR that
// powers up zeroed.
//
//ppm:hotpath per-lookup index-hash helper; runs once per table probe
func SFSXS(targets []uint64, selBits, foldBits, order uint) uint64 {
	if order == 0 {
		return 0
	}
	n := uint(len(targets))
	if n > order {
		n = order
	}
	var h uint64
	for i, t := range targets[:n] {
		h ^= Fold(t>>2, selBits, foldBits) << (order - 1 - uint(i))
	}
	width := foldBits + order - 1
	if width < order {
		width = order
	}
	return (h >> (width - order)) & Mask(order)
}

// SFSXSNest writes the SFSXS index (or the SFSXSLow index when low is set)
// of every order o in [1, len(dst)] to dst[o-1]. folds[i] is the SFSXS fold
// Fold(t>>2, selBits, foldBits) of the i-th most recent path target t, or
// zero past the recorded path, and folds must hold at least len(dst)
// entries.
//
// Each target's fold depends only on that target, so a predictor folds a
// target once, when it enters the path history, and keeps the folds beside
// the register (core's fold rings); a lookup then only nests them. The
// per-order hashes nest: with g_i the fold of the i-th most recent target,
// the high-select hash for order o is h_o = (h_{o-1} << 1) ^ g_{o-1}, and
// with foldBits >= 1 the final select always shifts by the constant
// foldBits-1, so one shift-XOR per order replaces the O(order^2) placements
// of calling SFSXS per order. foldBits must be in [1, 64]; every PPM
// configuration has it in [1, 32].
//
// Nothing branches on target data, and every shift count is reduced mod
// 64, so the compiler emits no shift guards. Equivalence with the bit-vector
// references is pinned by the check package's sweep.
//
//ppm:hotpath per-lookup index-hash helper; runs once per table probe
func SFSXSNest(dst, folds []uint64, foldBits uint, low bool) {
	folds = folds[:len(dst)]
	var h, m uint64
	if low {
		// Low-select: fold i sits at bit positions [i, i+foldBits); entries
		// at i >= o only occupy bits >= o, so masking the running hash to o
		// bits is exactly the per-order cap on path length.
		for i, g := range folds {
			h ^= g << (uint(i) & 63)
			m = m<<1 | 1
			dst[i] = h & m
		}
		return
	}
	top := (foldBits + 63) & 63 // foldBits-1, reduced mod 64
	for i, g := range folds {
		h = h<<1 ^ g
		m = m<<1 | 1
		dst[i] = h >> top & m
	}
}

// SFSXSLow is the alternative mapping mentioned in Section 4 of the paper:
// the mirror orientation that shifts the most recent target into the
// low-order bit positions and selects the order low-order bits of the hash.
// The paper found little accuracy difference between the two; both are kept
// so the claim can be checked experimentally.
//
//ppm:hotpath per-lookup index-hash helper; runs once per table probe
func SFSXSLow(targets []uint64, selBits, foldBits, order uint) uint64 {
	if order == 0 {
		return 0
	}
	n := uint(len(targets))
	if n > order {
		n = order
	}
	var h uint64
	for i, t := range targets[:n] {
		h ^= Fold(t>>2, selBits, foldBits) << uint(i)
	}
	return h & Mask(order)
}

// ReverseInterleave forms an n-bit index by interleaving bits of the
// bit-reversed history register with bits of the branch address, the
// indexing scheme Driesen & Hölzle describe for the Dual-path predictor
// components. Reversing the history places the most recently shifted-in
// target bits in the high-order index positions, spreading recent-path
// information across the table. n must be <= 64.
//
//ppm:hotpath per-lookup index-hash helper; runs once per table probe
func ReverseInterleave(history uint64, historyBits uint, pc uint64, n uint) uint64 {
	// Counting from the most significant output bit down, the index
	// alternates one history bit (recent first) and one PC bit until n bits
	// are set. The history positions in that 2:1 pattern get the whole
	// register folded into them, so the whole recorded path — not just its
	// most recent slice — reaches the index. Read from the least significant
	// bit up, the same pattern is the Morton interleave of the folded
	// history (even bits) and the PC (odd bits): a perfect shuffle of the
	// word holding the history in its low half and the PC in its high half.
	// The index is that interleave's n low bits, reversed.
	x := Fold(history, historyBits, (n+1)/2) | pc>>2<<32
	for _, st := range shuffle {
		t := (x ^ x>>st.shift) & st.mask
		x ^= t ^ t<<st.shift
	}
	return bits.Reverse64(x&Mask(n)) >> ((64 - n) & 63)
}

// shuffle lists the delta swaps of a 64-bit perfect outer shuffle (Hacker's
// Delight 7-2): applied in order, they move bit i of the low half to bit 2i
// and bit i of the high half to bit 2i+1.
var shuffle = [...]struct {
	mask  uint64
	shift uint
}{
	{0x00000000FFFF0000, 16},
	{0x0000FF000000FF00, 8},
	{0x00F000F000F000F0, 4},
	{0x0C0C0C0C0C0C0C0C, 2},
	{0x2222222222222222, 1},
}

// Mix64 is a splitmix64-style finalizer used to derive well-distributed
// table tags and workload hash functions from raw addresses. It is a
// bijection on 64-bit values.
//
//ppm:hotpath per-lookup index-hash helper; runs once per table probe
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
