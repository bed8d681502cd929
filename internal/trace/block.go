package trace

import "unsafe"

// Block is the struct-of-arrays form of a run of consecutive Records: one
// parallel slice ("lane") per field, plus precomputed index lanes over the
// branch classes the simulation engine dispatches on. Blocks exist to make
// re-simulation cheap: the experiment grid sweeps the same traces through
// many predictor configurations, and the columnar form lets the engine hand
// a whole block to one predictor at a time — hoisting interface dispatch
// and per-record bookkeeping out of the record loop — while batch fast
// paths that only act on indirect branches walk the index lanes and skip
// the conditional-branch fabric that dominates the stream.
//
// Blocks are built once (by BlocksSized, the workload generator or straight
// off a Reader) and then shared: every field, including the lanes, MUST be
// treated as immutable by consumers. The derived lanes (MTIdx, PIBIdx,
// GapSum) are maintained by the builders; mutating a data lane without
// rebuilding them desynchronizes the block.
type Block struct {
	// PC, Target, Meta, Gap and Value are the per-record field lanes; all
	// have the same length. Meta packs Class, Taken and MT into one byte
	// (see the Meta* constants, which mirror the low bits of the IBT2
	// flags byte).
	PC     []uint64
	Target []uint64
	Meta   []uint8
	Gap    []uint32
	// Value is nil when no record in the block carries a switch value,
	// the common case; otherwise it has the same length as Meta. A block
	// refilled by Reader.ReadBlock keeps its lane once it has one, so
	// there a non-nil lane may hold only zeros.
	Value []uint32

	// MTIdx lists, in stream order, the positions of multi-target
	// indirect jmp/jsr records (Record.MTIndirect) — the records
	// predictors predict and train on, and the MT history stream
	// (history.Stream.Lane). BTB, BTB2b and CBT, which keep no history,
	// walk only this lane, as do the families that record the MT stream:
	// Dual-path, Cascade, Cascade-u and ITTAGE as shipped.
	MTIdx []int32
	// PIBIdx lists, in stream order, the positions of all indirect
	// jmp/jsr records (Record.PIBStream), a superset of MTIdx — the PIB
	// history stream, which GAp and TC-PIB record and walk.
	PIBIdx []int32
	// GapSum is the sum of the Gap lane, precomputed so the engine can
	// account reconstructed instruction counts in O(1) per block.
	GapSum uint64
}

// BlockCap is the records-per-block capacity used by the builders: large
// enough to amortize per-block setup to noise, small enough that one
// block's lanes stay cache-resident while several predictors replay it.
const BlockCap = 4096

// Meta lane bit layout. The low five bits coincide with the IBT2 flags
// byte (class, taken, MT); the value-present wire bit is not stored — a
// non-nil Value lane carries that information.
const (
	MetaClassMask = 0x07 // Class in bits 0-2
	MetaTaken     = 0x08 // direction bit
	MetaMT        = 0x10 // multi-target annotation bit
)

// metaOf packs a record's class and flag bits into its Meta lane byte.
func metaOf(r Record) uint8 {
	m := uint8(r.Class) & MetaClassMask
	if r.Taken {
		m |= MetaTaken
	}
	if r.MT {
		m |= MetaMT
	}
	return m
}

// Len returns the number of records in the block.
func (b *Block) Len() int { return len(b.Meta) }

// Record reassembles the i'th record from the lanes. Panics if i is out of
// range.
//
//ppm:hotpath per-record reassembly inside the block engine's fallback loop
func (b *Block) Record(i int) Record {
	m := b.Meta[i]
	r := Record{
		PC:     b.PC[i],
		Target: b.Target[i],
		Class:  Class(m & MetaClassMask),
		Taken:  m&MetaTaken != 0,
		MT:     m&MetaMT != 0,
		Gap:    b.Gap[i],
	}
	if b.Value != nil {
		r.Value = b.Value[i]
	}
	return r
}

// Bytes returns the block's resident footprint under the columnar size
// model: the capacity of every lane times its element width. This is the
// unit the trace cache's budget accounting charges for a cached block.
func (b *Block) Bytes() int64 {
	return int64(cap(b.PC))*8 + int64(cap(b.Target))*8 +
		int64(cap(b.Meta)) + int64(cap(b.Gap))*4 + int64(cap(b.Value))*4 +
		int64(cap(b.MTIdx))*4 + int64(cap(b.PIBIdx))*4
}

// blockHeaderBytes is the size of the Block struct itself (slice headers
// plus GapSum), charged per cached block on top of the lane storage.
const blockHeaderBytes = int64(unsafe.Sizeof(Block{}))

// BlocksBytes sums the columnar footprint of a block slice, including the
// per-block struct headers.
func BlocksBytes(blks []Block) int64 {
	n := int64(cap(blks)) * blockHeaderBytes
	for i := range blks {
		n += blks[i].Bytes()
	}
	return n
}

// append pushes one record onto the block's lanes, maintaining the derived
// lanes. The caller guarantees capacity (BlocksSized preallocates), so
// steady-state appends do not grow.
func (b *Block) append(r Record) {
	i := len(b.Meta)
	b.PC = append(b.PC, r.PC)
	b.Target = append(b.Target, r.Target)
	b.Meta = append(b.Meta, metaOf(r))
	b.Gap = append(b.Gap, r.Gap)
	if r.Value != 0 && b.Value == nil {
		// First switch value in the block: materialize the lane and
		// back-fill the zeros for the records already appended.
		b.Value = make([]uint32, i, cap(b.Meta))
	}
	if b.Value != nil {
		b.Value = append(b.Value, r.Value)
	}
	b.GapSum += uint64(r.Gap)
	if r.PIBStream() {
		b.PIBIdx = append(b.PIBIdx, int32(i))
		if r.MT {
			b.MTIdx = append(b.MTIdx, int32(i))
		}
	}
}

// NewBlock returns an empty block with every fixed lane preallocated to n
// records, the capacity Reader.ReadBlock fills it to. The index lanes
// start small and grow as indirect branches arrive; the Value lane is
// allocated lazily.
func NewBlock(n int) Block {
	return Block{
		PC:     make([]uint64, 0, n),
		Target: make([]uint64, 0, n),
		Meta:   make([]uint8, 0, n),
		Gap:    make([]uint32, 0, n),
	}
}

// Trim sizes freshly built blocks to what they hold, so a cache charging
// BlocksBytes pays for records only: the block slice is cut to its length,
// and a final block more than an eighth empty has its record lanes copied
// down to their length. Both builders of a trace's blocks, BlocksSized and
// the workload generator, end with it, which keeps their footprints equal.
func Trim(blks []Block) []Block {
	if cap(blks) > len(blks) {
		blks = append(make([]Block, 0, len(blks)), blks...)
	}
	if n := len(blks); n > 0 {
		last := &blks[n-1]
		if k := last.Len(); cap(last.Meta)-k > k/8 {
			last.PC = append(make([]uint64, 0, k), last.PC...)
			last.Target = append(make([]uint64, 0, k), last.Target...)
			last.Meta = append(make([]uint8, 0, k), last.Meta...)
			last.Gap = append(make([]uint32, 0, k), last.Gap...)
			if last.Value != nil {
				last.Value = append(make([]uint32, 0, k), last.Value...)
			}
		}
	}
	return blks
}

// Blocks converts a record slice to its columnar form in BlockCap-sized
// blocks (the last block holds the remainder). The records are copied; the
// input slice is not retained.
func Blocks(recs []Record) []Block { return BlocksSized(recs, BlockCap) }

// BlocksSized is Blocks with an explicit records-per-block capacity.
// Panics if blockCap < 1.
func BlocksSized(recs []Record, blockCap int) []Block {
	if blockCap < 1 {
		panic("trace: block capacity must be >= 1")
	}
	var blks []Block
	for len(recs) > 0 {
		n := min(len(recs), blockCap)
		b := NewBlock(blockCap)
		for _, r := range recs[:n] {
			b.append(r)
		}
		blks = append(blks, b)
		recs = recs[n:]
	}
	return Trim(blks)
}

// BlocksRecords flattens blocks back to a record slice — the inverse of
// Blocks, used by differential tests and block-unaware consumers.
func BlocksRecords(blks []Block) []Record {
	n := 0
	for i := range blks {
		n += blks[i].Len()
	}
	recs := make([]Record, 0, n)
	for i := range blks {
		b := &blks[i]
		for k := 0; k < b.Len(); k++ {
			recs = append(recs, b.Record(k))
		}
	}
	return recs
}

// ReadBlock refills b with the next run of records, up to the capacity of
// b's record lanes (a block without any, such as a zero Block, gets
// BlockCap-record lanes), reusing b's lane storage (the Value lane
// included) so a streaming decode allocates nothing per block once the
// lanes have grown. The records decode straight from the byte window into
// the lanes, through the same decoder and checks as Read.
//
// ReadBlock does not wait for a full block. It reads the source only while
// b is still empty, until the window holds a complete record, and then
// returns as soon as the window holds no complete record: a source that
// has delivered some records and then blocks yields them with no further
// read, so a peer that streams a body while it reads the replies keeps
// getting them. A block therefore comes back short whenever the bytes read
// so far run out before it fills, not only at the end of the stream.
//
// ReadBlock returns io.EOF, with b empty, once the stream is exhausted. On
// any other error b holds the records decoded before it in this call; the
// records of earlier calls are not repeated.
func (r *Reader) ReadBlock(b *Block) error {
	n := min(cap(b.PC), cap(b.Target), cap(b.Meta), cap(b.Gap))
	if n == 0 {
		*b, n = NewBlock(BlockCap), BlockCap
	}
	b.PC, b.Target, b.Meta, b.Gap = b.PC[:0], b.Target[:0], b.Meta[:0], b.Gap[:0]
	b.Value, b.MTIdx, b.PIBIdx, b.GapSum = b.Value[:0], b.MTIdx[:0], b.PIBIdx[:0], 0
	for {
		if err := r.decodeBlock(b, n); err != nil || b.Len() > 0 {
			return err
		}
		// The window holds no complete record.
		if r.err != nil {
			return r.endErr()
		}
		r.fill()
	}
}

// decodeBlock fills the empty block b from the window's complete records
// until it holds n records or the window holds no complete record,
// maintaining the derived lanes, and returns a corrupt record's error. n
// must not exceed the capacity of b's PC, Target, Meta and Gap lanes.
//
//ppm:hotpath per-record decode loop under ReadBlock
func (r *Reader) decodeBlock(b *Block, n int) error {
	pcs, tgts, metas, gaps := b.PC[:n:n], b.Target[:n:n], b.Meta[:n:n], b.Gap[:n:n]
	vals := b.Value
	if vals != nil {
		if cap(vals) < n {
			vals = valueLane(n) //lint:coldpath only a block built with a shorter Value lane regrows it
		}
		vals = vals[:n:n]
	}
	mt, pib := b.MTIdx, b.PIBIdx
	win := r.buf[r.r:r.w]
	pos, prev, gapSum := 0, r.prevPC, uint64(0)
	var rec wireRecord
	var err error
	i := 0
	for ; i < len(metas); i++ {
		k, derr := decodeRecord(&rec, win[pos:], prev)
		if k == 0 {
			err = derr
			break
		}
		pos += k
		prev = rec.pc
		pcs[i], tgts[i], metas[i], gaps[i] = rec.pc, rec.target, rec.meta, rec.gap
		gapSum += uint64(rec.gap)
		if rec.value != 0 && vals == nil {
			// First switch value in a block without a Value lane:
			// materialize it, zero for the records decoded before.
			vals = valueLane(n) //lint:coldpath a block's Value lane is materialized once, then reused
		}
		if vals != nil {
			vals[i] = rec.value
		}
		if cls := Class(rec.meta & MetaClassMask); cls == IndirectJmp || cls == IndirectJsr {
			pib = append(pib, int32(i)) //lint:coldpath grows only until the lane reaches the block's indirect count
			if rec.meta&MetaMT != 0 {
				mt = append(mt, int32(i)) //lint:coldpath grows only until the lane reaches the block's dispatch count
			}
		}
	}
	r.r += pos
	r.prevPC = prev
	r.count += uint64(i)
	b.PC, b.Target, b.Meta, b.Gap = pcs[:i], tgts[:i], metas[:i], gaps[:i]
	if vals != nil {
		b.Value = vals[:i]
	}
	b.MTIdx, b.PIBIdx = mt, pib
	b.GapSum = gapSum
	return err
}

// valueLane allocates a zeroed Value lane of n records, for a block whose
// lane is missing or too short.
//
//ppm:coldpath the Value lane is allocated once per block, then reused
//go:noinline
func valueLane(n int) []uint32 { return make([]uint32, n) }
