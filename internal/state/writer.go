package state

import (
	"encoding/binary"
	"hash/crc32"
	"math/bits"
)

// castagnoli is the per-section CRC polynomial table, computed once.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Writer serializes snapshot sections into a growing buffer. The zero value
// is ready to use; reusing one writer across snapshots (directly or through
// a Pool) keeps the steady-state snapshot path allocation-free once the
// buffer has grown to the working-set size.
//
// A counting writer (SizeOf's) writes nothing: every method adds the
// bytes it would have written to n, with no buffer and no CRC.
type Writer struct {
	buf []byte
	// lenAt is the offset of the open section's 4-byte length placeholder;
	// -1 when no section is open. A counting writer keeps it at 0 while a
	// section is open.
	lenAt int
	// counting selects the counting mode; n is the count so far.
	counting bool
	n        int
}

// sectionFrameBytes is a section's framing past its id varint: the u32
// length before the payload and the u32 CRC after it.
const sectionFrameBytes = 8

// NewWriter returns an empty writer.
func NewWriter() *Writer { return &Writer{lenAt: -1} }

// Reset discards contents, keeping the buffer capacity.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.lenAt = -1
	w.n = 0
}

// Bytes returns the serialized snapshot so far. The slice aliases the
// writer's buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// uvarintLen is the length of v's unsigned varint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Begin opens a section with the given registry id. Panics if a section is
// already open: sections never nest, and unbalanced Begin/End pairs are a
// programming error in a Snapshot implementation, not an input condition.
func (w *Writer) Begin(id uint64) {
	if w.lenAt >= 0 {
		panic("state: Begin inside an open section")
	}
	if w.counting {
		w.n += uvarintLen(id) + sectionFrameBytes
		w.lenAt = 0
		return
	}
	w.buf = binary.AppendUvarint(w.buf, id)
	w.lenAt = len(w.buf)
	w.buf = append(w.buf, 0, 0, 0, 0) // length placeholder, patched by End
}

// End closes the open section, patching its length and appending the
// payload CRC. Panics if no section is open (unbalanced Begin/End pairs are
// a programming error in a Snapshot implementation).
func (w *Writer) End() {
	if w.lenAt < 0 {
		panic("state: End without Begin")
	}
	if !w.counting {
		payload := w.buf[w.lenAt+4:]
		binary.LittleEndian.PutUint32(w.buf[w.lenAt:], uint32(len(payload)))
		w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.Checksum(payload, castagnoli))
	}
	w.lenAt = -1
}

// U64 appends an unsigned varint.
func (w *Writer) U64(v uint64) {
	if w.counting {
		w.n += uvarintLen(v)
		return
	}
	w.buf = binary.AppendUvarint(w.buf, v)
}

// I64 appends a zigzag-coded signed varint.
func (w *Writer) I64(v int64) {
	if w.counting {
		w.n += uvarintLen(uint64(v<<1) ^ uint64(v>>63))
		return
	}
	w.buf = binary.AppendVarint(w.buf, v)
}

// U8 appends a single byte.
func (w *Writer) U8(v uint8) {
	if w.counting {
		w.n++
		return
	}
	w.buf = append(w.buf, v)
}

// Bool appends a strict 0/1 byte.
func (w *Writer) Bool(v bool) {
	if w.counting {
		w.n++
		return
	}
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}
