package state

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
)

// castagnoli is the per-section CRC polynomial table, computed once.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sectionFrameBytes is a section's framing past its id varint: the u32
// length before the payload and the u32 CRC after it.
const sectionFrameBytes = 8

// mode is what a walk does with each field it visits.
type mode uint8

const (
	encoding mode = iota // append the field to buf (Save)
	counting             // add the field's encoded size to n (SizeOf)
	decoding             // read, check and store the field (Load)
	failed               // a decode failed: visit nothing more
)

// Codec carries one walk over a component's snapshot fields. Every field
// method takes a pointer to the field: encoding and counting only read
// through it, decoding stores the checked value through it. A decode
// error is sticky — the codec switches to the failed mode, in which every
// method is a no-op and Loading reports false — so a walk needs no error
// plumbing and stores nothing past the first failure.
type Codec struct {
	mode mode
	buf  []byte // encoding: the snapshot so far; decoding: the input
	pos  int    // decoding: the read cursor
	// mark is the open section's 4-byte length placeholder (encoding) or
	// its payload end (decoding; equal to pos while no section is open,
	// so a stray read fails as truncated).
	mark int
	open bool
	id   uint64 // the open section's id, for error detail
	n    int    // counting: the size so far
	err  error
}

// Writer holds the encoding codec Save walks with, and the buffer it
// grows. The zero value is ready to use; reusing one writer (directly or
// through a Pool) keeps the steady-state save path allocation-free.
type Writer struct{ c Codec }

// NewWriter returns an empty writer.
func NewWriter() *Writer { return &Writer{} }

// Reader holds the decoding codec Load walks with. The zero value is ready
// to use.
type Reader struct{ c Codec }

// Loading reports whether the walk is decoding, for the few fields whose
// in-memory form differs from their wire form. It is false once a decode
// has failed, so load-only work stops at the first error.
func (c *Codec) Loading() bool { return c.mode == decoding }

// Err returns the sticky decoding error, if any.
func (c *Codec) Err() error { return c.err }

// fail records the first decoding error and stops the walk.
func (c *Codec) fail(class error, format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: section %d: %s", class, c.id, fmt.Sprintf(format, args...))
		c.mode = failed
	}
}

// Corrupt fails the decode with ErrCorrupt, for checks that span fields
// (a duplicated key, say) rather than bound one.
func (c *Codec) Corrupt(format string, args ...any) { c.fail(ErrCorrupt, format, args...) }

// uvarintLen is the length of v's unsigned varint encoding.
func uvarintLen(v uint64) int { return int(uvarintLens[bits.Len64(v)]) }

// uvarintLens maps a value's bit length to its varint length, ceil(bits/7)
// and 1 for zero; a table lookup keeps U64Max's counting case inlinable.
var uvarintLens = func() (t [65]uint8) {
	for n := range t {
		t[n] = uint8(max(1, (n+6)/7))
	}
	return t
}()

// Begin opens a section with the given registry id. Decoding checks that
// the next section carries that id, that its framing fits the input and
// that its payload CRC matches. Panics if a section is already open:
// sections never nest, and unbalanced Begin/End pairs are a bug in a walk,
// not an input condition.
func (c *Codec) Begin(id uint64) {
	if c.mode == failed {
		return
	}
	if c.open {
		panic("state: Begin inside an open section")
	}
	c.open, c.id = true, id
	switch c.mode {
	case encoding:
		c.buf = binary.AppendUvarint(c.buf, id)
		c.mark = len(c.buf)
		c.buf = append(c.buf, 0, 0, 0, 0) // length placeholder, patched by End
	case counting:
		c.n += uvarintLen(id) + sectionFrameBytes
	case decoding:
		got, k := binary.Uvarint(c.buf[c.pos:])
		if k <= 0 {
			c.fail(ErrCorrupt, "truncated section id at offset %d", c.pos)
			return
		}
		if got != id {
			// A cleanly framed but different section id means the snapshot
			// was written by a different component layout — a configuration
			// mismatch, not damaged bytes.
			c.fail(ErrMismatch, "snapshot has section %d at offset %d", got, c.pos)
			return
		}
		c.pos += k
		if len(c.buf)-c.pos < 4 {
			c.fail(ErrCorrupt, "truncated section length at offset %d", c.pos)
			return
		}
		length := int(binary.LittleEndian.Uint32(c.buf[c.pos:]))
		c.pos += 4
		if len(c.buf)-c.pos < length+4 {
			c.fail(ErrCorrupt, "%d payload bytes framed, %d available", length, len(c.buf)-c.pos)
			return
		}
		payload := c.buf[c.pos : c.pos+length]
		want := binary.LittleEndian.Uint32(c.buf[c.pos+length:])
		if got := crc32.Checksum(payload, castagnoli); got != want {
			c.fail(ErrCorrupt, "CRC %08x, want %08x", got, want)
			return
		}
		c.mark = c.pos + length
	}
}

// End closes the open section: encoding patches its length and appends the
// payload CRC; decoding requires the payload to have been consumed exactly —
// leftover bytes mean the walk and the writer disagree about the section's
// shape, which is corruption, not slack. Panics if no section is open.
func (c *Codec) End() {
	if c.mode == failed {
		return
	}
	if !c.open {
		panic("state: End without Begin")
	}
	c.open = false
	switch c.mode {
	case encoding:
		payload := c.buf[c.mark+4:]
		binary.LittleEndian.PutUint32(c.buf[c.mark:], uint32(len(payload)))
		c.buf = binary.LittleEndian.AppendUint32(c.buf, crc32.Checksum(payload, castagnoli))
	case decoding:
		if c.pos != c.mark {
			c.fail(ErrCorrupt, "%d unconsumed payload bytes", c.mark-c.pos)
			return
		}
		c.pos += 4 // CRC, verified by Begin
		c.mark = c.pos
	}
}

// The field methods keep the counting case inline — SizeOf runs on every
// session reply — and leave encoding and decoding to out-of-line helpers.

// U64Max walks an unsigned varint field; decoding rejects a value above max.
func (c *Codec) U64Max(p *uint64, max uint64) {
	if c.mode == counting {
		c.n += uvarintLen(*p)
	} else {
		c.u64(p, max)
	}
}

// U64 walks an unbounded unsigned varint field. It repeats U64Max's body
// rather than calling it, which would take it past the inlining budget.
func (c *Codec) U64(p *uint64) {
	if c.mode == counting {
		c.n += uvarintLen(*p)
	} else {
		c.u64(p, math.MaxUint64)
	}
}

// U64s walks each element of s as a U64 field.
func (c *Codec) U64s(s []uint64) {
	for i := range s {
		c.U64(&s[i])
	}
}

// U32 walks a 32-bit field as a varint; decoding rejects a wider value.
func (c *Codec) U32(p *uint32) {
	if c.mode == counting {
		c.n += uvarintLen(uint64(*p))
	} else {
		c.u32(p)
	}
}

// U8Max walks a single-byte field; decoding rejects a value above max.
func (c *Codec) U8Max(p *uint8, max uint8) {
	if c.mode == counting {
		c.n++
	} else {
		c.u8(p, max)
	}
}

// Bool walks a boolean field as a strict 0/1 byte — any other byte is
// corruption, keeping the decode→re-encode cycle byte-identical — and
// returns the field's value after the visit.
func (c *Codec) Bool(p *bool) bool {
	if c.mode == counting {
		c.n++
		return *p
	}
	return c.bool(p)
}

// Int walks a non-negative int field as a varint; decoding rejects a value
// above max.
func (c *Codec) Int(p *int, max int) {
	v := uint64(*p)
	if c.U64Max(&v, uint64(max)); c.mode == decoding {
		*p = int(v)
	}
}

func (c *Codec) u64(p *uint64, max uint64) {
	switch c.mode {
	case encoding:
		c.buf = binary.AppendUvarint(c.buf, *p)
	case decoding:
		v, k := binary.Uvarint(c.buf[c.pos:c.mark])
		if k <= 0 {
			c.fail(ErrCorrupt, "truncated varint at offset %d", c.pos)
		} else if v > max {
			c.fail(ErrCorrupt, "value %d at offset %d exceeds %d", v, c.pos, max)
		} else {
			c.pos += k
			*p = v
		}
	}
}

// u32 stays out of line so that U32 inlines.
//
//go:noinline
func (c *Codec) u32(p *uint32) {
	v := uint64(*p)
	if c.mode == encoding {
		c.buf = binary.AppendUvarint(c.buf, v)
	} else if c.u64(&v, math.MaxUint32); c.mode == decoding {
		*p = uint32(v)
	}
}

func (c *Codec) u8(p *uint8, max uint8) {
	switch c.mode {
	case encoding:
		c.buf = append(c.buf, *p)
	case decoding:
		if c.pos >= c.mark {
			c.fail(ErrCorrupt, "truncated byte at offset %d", c.pos)
		} else if v := c.buf[c.pos]; v > max {
			c.fail(ErrCorrupt, "byte %d at offset %d exceeds %d", v, c.pos, max)
		} else {
			c.pos++
			*p = v
		}
	}
}

func (c *Codec) bool(p *bool) bool {
	var v uint8
	if *p {
		v = 1
	}
	if c.mode == encoding {
		c.buf = append(c.buf, v)
	} else if c.u8(&v, 1); c.mode == decoding {
		*p = v == 1
	}
	return *p
}

// Match walks a configuration fingerprint field: encoding writes v,
// decoding fails with ErrMismatch unless the snapshot holds v too.
func (c *Codec) Match(v uint64) {
	got := v
	c.U64(&got)
	c.mismatch(got, v)
}

// MatchU8 is Match for a single-byte fingerprint field.
func (c *Codec) MatchU8(v uint8) {
	got := v
	c.U8Max(&got, math.MaxUint8)
	c.mismatch(uint64(got), uint64(v))
}

// MatchBool is Match for a boolean fingerprint field.
func (c *Codec) MatchBool(v bool) {
	got := v
	c.Bool(&got)
	if got != v {
		c.fail(ErrMismatch, "snapshot has %v, this predictor %v", got, v)
	}
}

func (c *Codec) mismatch(got, want uint64) {
	if got != want {
		c.fail(ErrMismatch, "snapshot has %d, this predictor %d", got, want)
	}
}
