package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace format:
//
//	magic   [4]byte  "IBT2" (Indirect Branch Trace, version 2)
//	records *
//
// Each record is delta/varint encoded against the previous record to keep
// traces compact:
//
//	flags   byte    bits 0-2 class, bit 3 taken, bit 4 MT, bit 5 value
//	pcΔ     zigzag varint (PC - prevPC)
//	tgtΔ    zigzag varint (Target - PC)
//	gap     uvarint
//	value   uvarint (present only when bit 5 set)
const magic = "IBT2"

// ErrBadMagic is returned by NewReader when the stream does not begin with
// the trace file magic.
var ErrBadMagic = errors.New("trace: bad magic (not an IBT2 trace)")

// ErrTruncated is returned by Read when the stream ends in the middle of a
// record — after its flags byte but before its last varint field. It wraps
// io.ErrUnexpectedEOF (errors.Is holds for both), so callers that already
// handle ErrUnexpectedEOF keep working, while callers that need to
// distinguish "client sent a cut-off trace" (a 400) from an internal decode
// failure (a 500) can match this sentinel directly.
var ErrTruncated = fmt.Errorf("trace: truncated record: %w", io.ErrUnexpectedEOF)

const (
	flagClassMask = 0x07
	flagTaken     = 0x08
	flagMT        = 0x10
	flagValue     = 0x20
)

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(v uint64) int64 { return int64(v>>1) ^ -int64(v&1) }

// Writer encodes Records to an underlying io.Writer in IBT2 format.
// Writers buffer internally; call Flush (or Close via the caller's file)
// before the trace is read back.
type Writer struct {
	w      *bufio.Writer
	prevPC uint64
	count  uint64
	buf    [4 * binary.MaxVarintLen64]byte
	err    error
}

// NewWriter creates a Writer and emits the file header.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Writer{w: bw}, nil
}

// Write appends one record to the trace.
func (w *Writer) Write(r Record) error {
	if w.err != nil {
		return w.err
	}
	if !r.Class.Valid() {
		return fmt.Errorf("trace: invalid class %d", r.Class)
	}
	flags := byte(r.Class) & flagClassMask
	if r.Taken {
		flags |= flagTaken
	}
	if r.MT {
		flags |= flagMT
	}
	if r.Value != 0 {
		flags |= flagValue
	}
	if err := w.w.WriteByte(flags); err != nil {
		w.err = err
		return err
	}
	n := binary.PutUvarint(w.buf[:], zigzag(int64(r.PC-w.prevPC)))
	n += binary.PutUvarint(w.buf[n:], zigzag(int64(r.Target-r.PC)))
	n += binary.PutUvarint(w.buf[n:], uint64(r.Gap))
	if r.Value != 0 {
		n += binary.PutUvarint(w.buf[n:], uint64(r.Value))
	}
	if _, err := w.w.Write(w.buf[:n]); err != nil {
		w.err = err
		return err
	}
	w.prevPC = r.PC
	w.count++
	return nil
}

// Count returns the number of records written so far.
func (w *Writer) Count() uint64 { return w.count }

// Flush writes any buffered data to the underlying writer.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Encode serializes recs as one in-memory IBT2 stream.
func Encode(recs []Record) ([]byte, error) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// windowSize is the Reader's byte window: one refill (a single Read on
// the source) carries hundreds of records, so its cost amortizes to noise.
const windowSize = 1 << 16

// maxRecordBytes is the longest well-formed record: a flags byte and four
// maximal varints. Read refills the window whenever fewer bytes than this
// remain, so a record of a healthy stream decodes in one pass.
const maxRecordBytes = 1 + 4*binary.MaxVarintLen64

// maxEmptyReads bounds consecutive Reads that return neither data nor an
// error before the Reader gives up with io.ErrNoProgress, as bufio does.
const maxEmptyReads = 100

// Reader decodes Records from an IBT2 stream. It reads the source into a
// 64 KiB byte window and decodes each record straight out of the window,
// refilling and compacting it when fewer than one maximal record's bytes
// remain. A source error is held until the bytes read before it are
// decoded, then surfaced: io.EOF at a record boundary, ErrTruncated inside
// a record, any other error unwrapped. Errors are sticky until Reset.
//
// The zero Reader is ready for Reset, which is how a pool of Readers
// reuses one window across many streams.
type Reader struct {
	src    io.Reader
	buf    []byte // the window; the unread bytes are buf[r:w]
	r, w   int
	err    error // source error, surfaced once buf[r:w] cannot complete a record
	prevPC uint64
	count  uint64
	hint   int
}

// NewReader validates the header and returns a Reader positioned at the
// first record.
func NewReader(src io.Reader) (*Reader, error) {
	r := new(Reader)
	if err := r.Reset(src); err != nil {
		return nil, err
	}
	return r, nil
}

// Reset repoints the Reader at a new stream, reusing its byte window
// instead of reallocating it. The header is revalidated and the decode
// state, record count, size hint and any held error rewound, so a Reset
// reader behaves exactly like one from NewReader, whatever state its last
// stream left it in. Callers that drain many traces in a loop (servers,
// benchmarks) Reset one Reader rather than paying a window per trace.
func (r *Reader) Reset(src io.Reader) error {
	if r.buf == nil {
		r.buf = make([]byte, windowSize)
	}
	r.src, r.r, r.w, r.err = src, 0, 0, nil
	r.prevPC, r.count, r.hint = 0, 0, 0
	for r.w < len(magic) && r.err == nil {
		r.fill()
	}
	if r.w < len(magic) {
		err := r.err
		if err == io.EOF && r.w > 0 {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("trace: reading header: %w", err)
	}
	if string(r.buf[:len(magic)]) != magic {
		return ErrBadMagic
	}
	r.r = len(magic)
	return nil
}

// fill slides the unread bytes to the front of the window and reads once
// from the source into the free space. A source error is held in r.err,
// and fill does nothing once one is held.
func (r *Reader) fill() {
	if r.err != nil {
		return
	}
	if r.r > 0 {
		r.w = copy(r.buf, r.buf[r.r:r.w])
		r.r = 0
	}
	for range maxEmptyReads {
		n, err := r.src.Read(r.buf[r.w:])
		r.w += n
		if err != nil {
			r.err = err
			return
		}
		if n > 0 {
			return
		}
	}
	r.err = io.ErrNoProgress
}

// uvarint decodes one unsigned varint from the front of b and returns it
// with the bytes it took; n == 0 means b ends inside the varint and n < 0
// means the varint overflows 64 bits: its tenth byte exceeds 1, or it has
// an eleventh byte. A stream cut right after ten continuation bytes is
// therefore truncated, not corrupt.
//
//ppm:hotpath per-field varint decode under Read and ReadBlock
func uvarint(b []byte) (v uint64, n int) {
	for i, c := range b {
		if i == binary.MaxVarintLen64 || i == binary.MaxVarintLen64-1 && c > 1 && c < 0x80 {
			return 0, -1
		}
		if c < 0x80 {
			return v | uint64(c)<<(7*i), i + 1
		}
		v |= uint64(c&0x7f) << (7 * i)
	}
	return 0, 0
}

// errVarintOverflow mirrors the stdlib's binary.ReadUvarint overflow error.
var errVarintOverflow = errors.New("binary: varint overflows a 64-bit integer")

// wireRecord is one record as decodeRecord yields it: meta holds the flags
// byte's class, taken and MT bits, which is the Block's Meta lane byte as
// is, and the other fields their absolute values.
type wireRecord struct {
	meta       uint8
	gap, value uint32
	pc, target uint64
}

// record converts the decoded fields to a Record.
func (w *wireRecord) record() Record {
	return Record{
		PC:     w.pc,
		Target: w.target,
		Class:  Class(w.meta & MetaClassMask),
		Taken:  w.meta&MetaTaken != 0,
		MT:     w.meta&MetaMT != 0,
		Gap:    w.gap,
		Value:  w.value,
	}
}

// decodeRecord is the one decoder of the record format, under both Read
// and ReadBlock: it decodes the record at the front of b into rec, given
// the PC of its predecessor, and returns the bytes it took: 0 when b ends
// inside the record. A corrupt record (an overflowing varint or an invalid
// class) returns an error.
func decodeRecord(rec *wireRecord, b []byte, prevPC uint64) (n int, err error) {
	if len(b) == 0 {
		return 0, nil
	}
	flags := b[0]
	pcd, k := uvarint(b[1:])
	if k <= 0 {
		return 0, varintErr(k)
	}
	n = 1 + k
	tgtd, k := uvarint(b[n:])
	if k <= 0 {
		return 0, varintErr(k)
	}
	n += k
	gap, k := uvarint(b[n:])
	if k <= 0 {
		return 0, varintErr(k)
	}
	n += k
	var val uint64
	if flags&flagValue != 0 {
		val, k = uvarint(b[n:])
		if k <= 0 {
			return 0, varintErr(k)
		}
		n += k
	}
	if !Class(flags & flagClassMask).Valid() {
		return 0, classErr(flags) //lint:coldpath a corrupt record ends the stream
	}
	rec.meta = flags & (flagClassMask | flagTaken | flagMT)
	rec.pc = prevPC + uint64(unzigzag(pcd))
	rec.target = rec.pc + uint64(unzigzag(tgtd))
	rec.gap = uint32(gap)
	rec.value = uint32(val)
	return n, nil
}

// classErr is decodeRecord's error for a flags byte naming no class.
//
//ppm:coldpath formats the error that ends a corrupt stream
//go:noinline
func classErr(flags byte) error {
	return fmt.Errorf("trace: corrupt record: invalid class %d", flags&flagClassMask)
}

// varintErr maps a failed uvarint's length to decodeRecord's error: nil
// for a varint the window cuts off, errVarintOverflow for an overflow.
func varintErr(k int) error {
	if k < 0 {
		return errVarintOverflow
	}
	return nil
}

// Read returns the next record, or io.EOF at end of trace.
func (r *Reader) Read() (Record, error) {
	if r.w-r.r < maxRecordBytes {
		r.fill()
	}
	var rec wireRecord
	for {
		n, err := decodeRecord(&rec, r.buf[r.r:r.w], r.prevPC)
		if n > 0 {
			r.r += n
			r.prevPC = rec.pc
			r.count++
			return rec.record(), nil
		}
		if err != nil {
			return Record{}, err
		}
		if r.err != nil {
			return Record{}, r.endErr()
		}
		// The window ends inside the record: the source made a short
		// read, or an overflow hinges on a varint's eleventh byte. Read
		// on until the record completes or the source fails.
		r.fill()
	}
}

// endErr classifies the held source error once the window cannot complete
// a record: an exhausted stream is io.EOF at a record boundary and
// ErrTruncated inside a record; any other error passes through untouched.
func (r *Reader) endErr() error {
	switch {
	case r.err != io.EOF && r.err != io.ErrUnexpectedEOF:
		return r.err
	case r.r == r.w:
		return io.EOF
	default:
		return ErrTruncated
	}
}

// Count returns the number of records read so far.
func (r *Reader) Count() uint64 { return r.count }

// SetSizeHint tells the reader how many records remain in the stream, when
// the caller knows (a Writer.Count from the producing side, a record count
// carried out of band). ReadAll preallocates its result to the hint, so an
// accurate hint makes draining the trace reallocation-free. The hint is
// advisory and untrusted: a hint may arrive from the far side of a network
// boundary, so ReadAll caps the upfront allocation no matter how large the
// hint claims the stream is.
func (r *Reader) SetSizeHint(n int) {
	if n > 0 {
		r.hint = n
	}
}

// maxReadAllPrealloc caps the initial ReadAll allocation, in records. A
// size hint is a claim, not a measurement — an adversarial or corrupt hint
// of billions of records must not translate into an out-of-memory upfront
// allocation for a three-record stream. Streams genuinely longer than the
// cap grow normally from there (amortized append), so honest hints beyond
// the cap lose only the reallocation-free guarantee, never data.
const maxReadAllPrealloc = 1 << 20

// ReadAll drains the reader into a slice, preallocated from the size hint
// when one was set (capped at maxReadAllPrealloc records). Intended for
// tests and moderate trace sizes; large traces should be streamed with
// Read.
func (r *Reader) ReadAll() ([]Record, error) {
	capacity := r.hint
	if capacity <= 0 {
		capacity = 1024
	}
	if capacity > maxReadAllPrealloc {
		capacity = maxReadAllPrealloc
	}
	recs := make([]Record, 0, capacity)
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}
