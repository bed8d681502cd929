// Package history implements path history registers (PHRs): shift registers
// that record the recent targets of a selected stream of branches. Two views
// are provided, matching the two families of predictors in the paper:
//
//   - the ring of most recent full targets, which Peek and Recent read;
//     the PPM predictor folds each target for its SFSXS mapping (Figure 2)
//     as it pushes it, and keeps those folds beside the register;
//   - Packed() exposes the conventional k-bits-per-target shift register
//     used by GAp, Target Cache and Dual-path gshare/interleaved indexing.
//
// A register records one of three streams: every branch (PB), every
// indirect jmp/jsr (PIB) or the multi-target indirect ones (MT). Stream.Lane
// maps the PIB and MT streams onto the trace.Block index lane listing their
// records, the one place block paths learn which lane to walk.
package history

import (
	"repro/internal/hashing"
	"repro/internal/trace"
)

// Stream selects which branch records feed a PHR, mirroring the correlation
// groups studied by Chang et al. and adopted in Section 4 of the paper.
type Stream uint8

const (
	// AllBranches records the target of every committed branch (PB path
	// history: "Per Branch" correlation). Not-taken conditional branches
	// contribute their fall-through address.
	AllBranches Stream = iota
	// IndirectBranches records targets of indirect jmp/jsr instructions
	// only, ST and MT alike (PIB path history: "Per Indirect Branch").
	IndirectBranches
	// MTIndirectBranches records only multi-target indirect jmp/jsr
	// targets — the stream the Dual-path predictor registers observe.
	MTIndirectBranches
)

// String names the stream.
func (s Stream) String() string {
	switch s {
	case AllBranches:
		return "PB"
	case IndirectBranches:
		return "PIB"
	case MTIndirectBranches:
		return "MT"
	}
	return "stream(?)"
}

// Accepts reports whether a record belongs to the stream.
func (s Stream) Accepts(r trace.Record) bool {
	switch s {
	case AllBranches:
		return true
	case IndirectBranches:
		return r.PIBStream()
	case MTIndirectBranches:
		return r.MTIndirect()
	}
	return false
}

// HasLane reports whether a trace.Block carries an index lane listing
// exactly the records of the stream: PIB and MT do, PB does not. The
// families whose block paths walk a lane (GAp, Target Cache, Dual-path,
// Cascade, ITTAGE) reject streams without one at construction.
func (s Stream) HasLane() bool {
	return s == IndirectBranches || s == MTIndirectBranches
}

// Lane returns the block's index lane for the stream — PIBIdx for
// IndirectBranches, MTIdx for MTIndirectBranches — or nil for a stream
// without one (see HasLane). Every MT-indirect record is on both lanes, so
// a block path that walks its stream's lane, predicting and training where
// the Meta byte has MetaMT set and pushing every target, replays the record
// loop exactly.
func (s Stream) Lane(b *trace.Block) []int32 {
	switch s {
	case IndirectBranches:
		return b.PIBIdx
	case MTIndirectBranches:
		return b.MTIdx
	}
	return nil
}

// PHR is a path history register holding the most recent `depth` targets of
// its stream. The zero value is not usable; construct with New or NewWide.
type PHR struct {
	stream Stream
	ring   []uint64
	head   int // index of most recent entry
	// pushes counts every target shifted in since power-up; the register
	// holds min(pushes, depth) of them (Len). Counting without a clamp keeps
	// Push small enough to inline.
	pushes int

	// packed is the conventional shift register maintained incrementally:
	// bitsPer low-order bits of each target, most recent in the low bits.
	// Registers up to 64 bits occupy one word; wider registers (geometric
	// ITTAGE histories) span little-endian words, word 0 least significant.
	// Push leaves bits shifted past packedBits in the top word; every reader
	// masks them with topMask (lowMask for word 0), so they are never seen.
	// A register with no packed view has no words.
	packed     []uint64
	topMask    uint64 // mask of the valid bits in the top packed word
	lowMask    uint64 // mask of the valid bits in word 0
	selMask    uint64 // Mask(bitsPer): the bits of each target shifted in
	carry      uint   // 64-bitsPer: where a word's outgoing bits start
	packedBits uint
	bitsPer    uint
}

// New creates a PHR of the given depth over the given stream. bitsPer
// configures the packed shift-register view (bits recorded per target);
// packedBits bounds the register width. Panics if depth < 1 or if
// packedBits > 64 — registers wider than one word must be constructed with
// NewWide, which is a deliberate call-site declaration that the extra width
// is wanted (the former silent clamp to 64 truncated geometric histories).
func New(stream Stream, depth int, bitsPer, packedBits uint) *PHR {
	if packedBits > 64 {
		panic("history: packedBits > 64 needs the multi-word register; construct with NewWide")
	}
	return NewWide(stream, depth, bitsPer, packedBits)
}

// NewWide creates a PHR whose packed shift-register view may be wider than
// 64 bits, kept as a little-endian multi-word register; Packed then exposes
// the 64 low-order bits and FoldPacked folds any prefix of the full width.
// Panics if depth < 1.
func NewWide(stream Stream, depth int, bitsPer, packedBits uint) *PHR {
	if depth < 1 {
		panic("history: depth must be >= 1")
	}
	words := int((packedBits + 63) / 64)
	top := ^uint64(0)
	if packedBits%64 != 0 {
		top = (uint64(1) << (packedBits % 64)) - 1
	}
	low := ^uint64(0)
	if words == 1 {
		low = top
	}
	return &PHR{
		stream:     stream,
		ring:       make([]uint64, depth),
		head:       depth - 1,
		packed:     make([]uint64, words),
		topMask:    top,
		lowMask:    low,
		selMask:    hashing.Mask(min(bitsPer, 64)),
		carry:      64 - min(bitsPer, 64),
		bitsPer:    bitsPer,
		packedBits: packedBits,
	}
}

// Stream returns the stream feeding this register.
func (p *PHR) Stream() Stream { return p.stream }

// Observe shifts the record's target into the register if the record
// belongs to the PHR's stream. It returns true if the register advanced.
//
//ppm:hotpath per-record history-register shift
func (p *PHR) Observe(r trace.Record) bool {
	if !p.stream.Accepts(r) {
		return false
	}
	p.Push(r.Target)
	return true
}

// Push unconditionally shifts a target into the register. Every register
// takes the same straight-line update, with no outlined packed-view path
// and no bounds check, so Push inlines at its call sites.
//
//ppm:hotpath per-record history-register shift
func (p *PHR) Push(target uint64) {
	ring, h := p.ring, p.head+1
	if h == len(ring) {
		h = 0
	}
	if uint(h) < uint(len(ring)) { // always true; lets the compiler drop the bounds check
		ring[h] = target
	}
	p.head = h
	p.pushes++
	// Multi-word left shift by bitsPer, low word first, each word's outgoing
	// bits carried into the next. Go's shift semantics make bitsPer >= 64 a
	// whole-word shift (x<<64 is 0, carry 0 passes the word on) exactly as a
	// single-word register degenerates to the new target alone. Bits pushed
	// past packedBits stay in the top word until a reader masks them off.
	w, in := p.packed, target>>2&p.selMask
	for i, x := range w {
		w[i], in = x<<p.bitsPer|in, x>>p.carry
	}
}

// Len reports how many targets have been recorded, up to the depth.
func (p *PHR) Len() int { return min(p.pushes, len(p.ring)) }

// Recent fills dst's backing storage with the n most recent targets (most
// recent first) and returns the resulting length-n slice. Fewer than n are
// returned during warm-up. Callers on the per-lookup path pass a
// struct-owned scratch slice with capacity >= n so no allocation occurs;
// undersized (or nil) dst grows once.
//
//ppm:hotpath per-record history-register shift
func (p *PHR) Recent(dst []uint64, n int) []uint64 {
	n = min(n, p.Len())
	if cap(dst) < n {
		dst = make([]uint64, n) //lint:coldpath — only for nil/undersized scratch
	}
	dst = dst[:n]
	idx := p.head
	for i := range dst {
		dst[i] = p.ring[idx]
		idx--
		if idx < 0 {
			idx = len(p.ring) - 1
		}
	}
	return dst
}

// Peek returns the i-th most recent target in the ring (0 = most recent),
// reading slots that have not been written yet as zero — the zero-filled
// warm-up a hardware register that powers up cleared would exhibit, and the
// contract the incremental folded registers of geometric-history predictors
// rely on for their outgoing items. Panics if i is not in [0, depth) for
// the register's depth.
//
//ppm:hotpath per-record history-register read; runs once per bank per push
func (p *PHR) Peek(i int) uint64 {
	if i < 0 || i >= len(p.ring) {
		panic("history: Peek index out of range")
	}
	idx := p.head - i
	if idx < 0 {
		idx += len(p.ring)
	}
	return p.ring[idx]
}

// Packed returns the 64 low-order bits of the shift-register view: bitsPer
// low bits of each recorded target, most recent target in the least
// significant bits, truncated to packedBits. For registers constructed with
// NewWide past 64 bits this is the most recent word; FoldPacked reaches the
// full width.
//
//ppm:hotpath per-record history-register shift
func (p *PHR) Packed() uint64 {
	if len(p.packed) == 0 {
		return 0
	}
	return p.packed[0] & p.lowMask
}

// PackedBits returns the configured width of the packed register.
func (p *PHR) PackedBits() uint { return p.packedBits }

// FoldPacked XOR-folds the `in` low-order bits of the packed register —
// the most recent in/bitsPer targets — into out bits. It is the
// from-scratch specification of the incrementally maintained
// hashing.Folded registers geometric-history predictors keep per bank;
// snapshot restore reseeds those registers from it. in is clamped to the
// register width; out must be in [1, 64].
//
//ppm:hotpath per-lookup index-hash helper; runs once per table probe
func (p *PHR) FoldPacked(in, out uint) uint64 {
	if in > p.packedBits {
		in = p.packedBits
	}
	return hashing.FoldWords(p.packed, in, out)
}

// Reset clears the register to its power-up state.
func (p *PHR) Reset() {
	for i := range p.ring {
		p.ring[i] = 0
	}
	p.head = len(p.ring) - 1
	p.pushes = 0
	for i := range p.packed {
		p.packed[i] = 0
	}
}
