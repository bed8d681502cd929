package trace

import (
	"io"
	"unsafe"
)

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
// Blocks are built once (from a []Record or straight off a Reader) and then
// shared: every field, including the lanes, MUST be treated as immutable by
// consumers. The derived lanes (MTIdx, PIBIdx, GapSum) are maintained by
// the builders; mutating a data lane without rebuilding them desynchronizes
// the block.
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
	// predictors predict and train on. Predictors whose history streams
	// ignore everything else (BTB, Dual-path, Cascade) walk only this
	// lane.
	MTIdx []int32
	// PIBIdx lists, in stream order, the positions of all indirect
	// jmp/jsr records (Record.PIBStream), a superset of MTIdx — the
	// stream PIB path history registers record (GAp, TC-PIB).
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
	m := b.Meta[i] //lint:idxsafe caller contract: i < Len(); panicking on bad i is the documented behaviour
	r := Record{
		PC:     b.PC[i],     //lint:idxsafe all lanes share len(b.Meta) by construction
		Target: b.Target[i], //lint:idxsafe all lanes share len(b.Meta) by construction
		Class:  Class(m & MetaClassMask),
		Taken:  m&MetaTaken != 0,
		MT:     m&MetaMT != 0,
		Gap:    b.Gap[i], //lint:idxsafe all lanes share len(b.Meta) by construction
	}
	if b.Value != nil {
		r.Value = b.Value[i] //lint:idxsafe a non-nil Value lane shares len(b.Meta) by construction
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
// lanes. The caller guarantees capacity (the builders preallocate), so
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

// newBlock returns an empty block with every fixed lane preallocated to n
// records. The index lanes start small and grow as indirect branches
// arrive; the Value lane is allocated lazily.
func newBlock(n int) Block {
	return Block{
		PC:     make([]uint64, 0, n),
		Target: make([]uint64, 0, n),
		Meta:   make([]uint8, 0, n),
		Gap:    make([]uint32, 0, n),
	}
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
	blks := make([]Block, 0, (len(recs)+blockCap-1)/blockCap)
	for off := 0; off < len(recs); off += blockCap {
		end := off + blockCap
		if end > len(recs) {
			end = len(recs)
		}
		b := newBlock(end - off)
		for _, r := range recs[off:end] {
			b.append(r)
		}
		blks = append(blks, b)
	}
	return blks
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

// ReadBlock refills b with the next run of up to BlockCap records, reusing
// b's lane storage (the Value lane included) so a streaming decode
// allocates nothing per block once the lanes have grown. It returns io.EOF,
// with b empty, once the stream is exhausted; a short final block comes
// back with a nil error first. On any other error b holds the records
// decoded before it.
func (r *Reader) ReadBlock(b *Block) error {
	if cap(b.Meta) < BlockCap {
		*b = newBlock(BlockCap)
	}
	b.PC, b.Target, b.Meta, b.Gap = b.PC[:0], b.Target[:0], b.Meta[:0], b.Gap[:0]
	b.Value, b.MTIdx, b.PIBIdx, b.GapSum = b.Value[:0], b.MTIdx[:0], b.PIBIdx[:0], 0
	for b.Len() < BlockCap {
		rec, err := r.Read()
		if err == io.EOF && b.Len() > 0 {
			return nil
		}
		if err != nil {
			return err
		}
		b.append(rec)
	}
	return nil
}
