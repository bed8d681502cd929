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
// The loop runs ceil(in/out) rounds whatever the data, and every shift
// count is reduced mod 64 (out == 64 never reaches a second round).
//
//ppm:hotpath per-lookup index-hash helper; runs once per table probe
func Fold(v uint64, in, out uint) (folded uint64) {
	v &= Mask(in)
	for m, sh := Mask(out), uint(0); sh < in; sh += max(out, 1) {
		folded ^= v & m
		v >>= out & 63
	}
	return folded
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

// SFSXSAll computes SFSXS (or SFSXSLow when low is set) for every order in
// [1, len(dst)-1] in one incremental pass, writing the order-j index to
// dst[j]; dst[0] is left as is. The path is read in place from a path
// history ring: the most recent target is ring[head], the next ring[head-1],
// wrapping from ring[0] to ring[len(ring)-1], and only the n most recent
// targets count (fewer than an order during warm-up). head must index ring.
//
// The per-order hashes nest: with g_i the folded contribution of the i-th
// most recent target, the high-select hash for order o is
// h_o = (h_{o-1} << 1) ^ g_{o-1}, and with foldBits >= 1 the final select
// always shifts by the constant foldBits-1 — so one fold per target and one
// shift-XOR per order replace the O(order^2) refolds of calling SFSXS per
// order. foldBits must be in [1, selBits] and selBits <= 32 (every PPM
// configuration validates this).
//
// Cost model: nothing branches on target data. Each target takes
// ceil(log2(ceil(selBits/foldBits))) fold rounds (one for the paper's 10/5),
// targets past n are masked to zero rather than skipped, and every shift
// count is reduced mod 64, so the compiler emits no shift guards. Two short
// passes keep the loop state in registers. Equivalence with the bit-vector
// references is pinned by the check package's sweep.
//
//ppm:hotpath per-lookup index-hash helper; runs once per table probe
func SFSXSAll(dst, ring []uint64, head, n int, selBits, foldBits uint, low bool) {
	// First pass: dst[o] holds the fold of the o-th most recent target, or
	// zero past the recorded path. XORing the value with itself shifted by
	// foldBits, 2*foldBits, 4*foldBits, ... collects every foldBits-wide
	// chunk in the low bits, so the paper's 10-into-5 fold is one round.
	sel, fm := Mask(selBits), Mask(foldBits)
	fs := max(foldBits, 1) // a zero width would never end the rounds
	i := head
	for o := 1; o < len(dst); o++ {
		g := ring[i] >> 2 & sel
		for s := fs; s < selBits; s <<= 1 {
			g ^= g >> (s & 63)
		}
		dst[o] = g & fm & uint64(int64(o-1-n)>>63) // all ones while o-1 < n
		i--
		if i < 0 {
			i = len(ring) - 1
		}
	}
	// Second pass: nest the per-order hashes in place.
	var h, m uint64
	if low {
		// Low-select: fold i sits at bit positions [i, i+foldBits); entries
		// at i >= o only occupy bits >= o, so masking the running hash to o
		// bits is exactly the per-order cap on path length.
		for o := 1; o < len(dst); o++ {
			h ^= dst[o] << (uint(o-1) & 63)
			m = m<<1 | 1
			dst[o] = h & m
		}
		return
	}
	top := (foldBits + 63) & 63 // foldBits-1, reduced mod 64
	for o := 1; o < len(dst); o++ {
		h = h<<1 ^ dst[o]
		m = m<<1 | 1
		dst[o] = h >> top & m
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
// information across the table.
//
//ppm:hotpath per-lookup index-hash helper; runs once per table probe
func ReverseInterleave(history uint64, historyBits uint, pc uint64, n uint) uint64 {
	// The shift register keeps the most recent target in its low-order
	// bits; bit-reversing within the n-bit window places those most
	// recent bits in the high-order index positions, spreading recent-path
	// information across the table while PC bits fill the gaps.
	// Count the history positions in the 2:1 interleave pattern and fold
	// the full register into that many bits, so the whole recorded path —
	// not just its most recent slice — reaches the index.
	histPos := (n + 1) / 2
	h := Fold(Select(history, historyBits), historyBits, histPos)
	pc >>= 2
	var out uint64
	var outPos uint
	// Alternate one folded-history bit (recent first) and one PC bit until
	// n output bits are set.
	for outPos < n {
		out |= (h & 1) << (n - 1 - outPos)
		h >>= 1
		outPos++
		if outPos >= n {
			break
		}
		out |= (pc & 1) << (n - 1 - outPos)
		pc >>= 1
		outPos++
	}
	return Select(out, n)
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
