package check

import (
	"repro/internal/history"
	"repro/internal/trace"
)

// refHistory is the naive path history register: it appends every accepted
// target to a plain slice and derives its views by replaying the push
// sequence through the shift-register definition. No ring buffer, no
// word-packed register — the packed view is a plain bit array driven by the
// written-out shift loop (memoized across reads, see packedRegister), so
// the optimized PHR's incremental state is checked against the definition.
type refHistory struct {
	stream     history.Stream
	depth      int
	bitsPer    uint
	packedBits uint
	all        []uint64 // every accepted target, oldest first

	// reg/regN memoize the shift-register replay: reg is the register after
	// replaying the first regN pushes. The replay is a left fold over the
	// push sequence, so resuming it from the cached state is — by the
	// definition of the loop — identical to starting over; the cache only
	// avoids redoing prefix work when the geometric-history references read
	// the register a dozen times per prediction.
	reg  []bool
	regN int
}

func newRefHistory(stream history.Stream, depth int, bitsPer, packedBits uint) *refHistory {
	return &refHistory{stream: stream, depth: depth, bitsPer: bitsPer, packedBits: packedBits}
}

// refAccepts restates the stream membership rules from first principles
// (Section 4's correlation groups) instead of calling Stream.Accepts.
func refAccepts(s history.Stream, r trace.Record) bool {
	isIndirectJmpJsr := r.Class == trace.IndirectJmp || r.Class == trace.IndirectJsr
	switch s {
	case history.AllBranches:
		return true
	case history.IndirectBranches:
		return isIndirectJmpJsr
	case history.MTIndirectBranches:
		return r.MT && isIndirectJmpJsr
	}
	return false
}

func (h *refHistory) observe(r trace.Record) {
	if refAccepts(h.stream, r) {
		h.all = append(h.all, r.Target)
	}
}

// recent returns the n most recent targets, most recent first, capped by
// both the register depth and what has been recorded so far (warm-up).
func (h *refHistory) recent(n int) []uint64 {
	if n > h.depth {
		n = h.depth
	}
	if n > len(h.all) {
		n = len(h.all)
	}
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		out[i] = h.all[len(h.all)-1-i]
	}
	return out
}

// packedRegister replays every recorded push through the shift-register
// definition on a plain per-bit array — no words, no carries: for each
// target, shift every bit up by bitsPer, drop bits past packedBits, and
// deposit the selected low target bits at the bottom. Index 0 is the least
// significant bit. Callers must treat the returned slice as read-only.
func (h *refHistory) packedRegister() []bool {
	if h.reg == nil {
		h.reg, h.regN = make([]bool, h.packedBits), 0
	}
	reg := h.reg
	for _, t := range h.all[h.regN:] {
		var sel uint64
		if h.bitsPer >= 64 {
			sel = t >> 2
		} else {
			sel = refSelect(t>>2, h.bitsPer)
		}
		for j := int(h.packedBits) - 1; j >= 0; j-- {
			if j >= int(h.bitsPer) {
				reg[j] = reg[j-int(h.bitsPer)]
			} else {
				reg[j] = sel&(uint64(1)<<uint(j)) != 0
			}
		}
	}
	h.regN = len(h.all)
	return reg
}

// packed returns the 64 low-order bits of the replayed register, the view
// the optimized PHR exposes as Packed.
func (h *refHistory) packed() uint64 {
	var p uint64
	for j, b := range h.packedRegister() {
		if j >= 64 {
			break
		}
		if b {
			p |= uint64(1) << uint(j)
		}
	}
	return p
}

// foldPacked XOR-folds the in low-order bits of the replayed register into
// out bits, one bit at a time: bit p lands on folded bit p mod out. It is
// the reference for both PHR.FoldPacked and the incrementally maintained
// hashing.Folded registers of the geometric-history predictors.
func (h *refHistory) foldPacked(in, out uint) uint64 {
	if in > h.packedBits {
		in = h.packedBits
	}
	reg := h.packedRegister()
	var folded uint64
	for p := uint(0); p < in; p++ {
		if reg[p] {
			folded ^= uint64(1) << (p % out)
		}
	}
	return folded
}
