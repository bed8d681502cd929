package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

// refReader is the reference IBT2 decoder the window decoder is checked
// against: a bufio.Reader read one byte at a time, each varint decoded
// byte by byte. It is slow and obviously faithful to the format.
type refReader struct {
	r      *bufio.Reader
	prevPC uint64
	count  uint64
}

func newRefReader(src io.Reader) (*refReader, error) {
	br := bufio.NewReaderSize(src, windowSize)
	hdr := make([]byte, len(magic))
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(hdr) != magic {
		return nil, ErrBadMagic
	}
	return &refReader{r: br}, nil
}

func (r *refReader) uvarint() (uint64, error) {
	var v uint64
	var shift uint
	for {
		b, err := r.r.ReadByte()
		if err != nil {
			return 0, err
		}
		if b < 0x80 {
			if shift >= 64 || (shift == 63 && b > 1) {
				return 0, errVarintOverflow
			}
			return v | uint64(b)<<shift, nil
		}
		if shift >= 64 {
			return 0, errVarintOverflow
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
	}
}

// refTruncated maps an end-of-stream error hit mid-record to ErrTruncated;
// genuine I/O errors pass through untouched.
func refTruncated(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrTruncated
	}
	return err
}

func (r *refReader) Read() (Record, error) {
	flags, err := r.r.ReadByte()
	if err != nil {
		if err == io.ErrUnexpectedEOF {
			err = io.EOF
		}
		return Record{}, err
	}
	var f [4]uint64
	nf := 3
	if flags&flagValue != 0 {
		nf = 4
	}
	for i := range nf {
		if f[i], err = r.uvarint(); err != nil {
			return Record{}, refTruncated(err)
		}
	}
	rec := Record{
		Class: Class(flags & flagClassMask),
		Taken: flags&flagTaken != 0,
		MT:    flags&flagMT != 0,
		Gap:   uint32(f[2]),
		Value: uint32(f[3]),
	}
	rec.PC = r.prevPC + uint64(unzigzag(f[0]))
	rec.Target = rec.PC + uint64(unzigzag(f[1]))
	if !rec.Class.Valid() {
		return Record{}, fmt.Errorf("trace: corrupt record: invalid class %d", flags&flagClassMask)
	}
	r.prevPC = rec.PC
	r.count++
	return rec, nil
}

// decoded is one decoder's account of a stream: the records it delivered
// and the error that ended them (io.EOF for a clean end).
type decoded struct {
	recs []Record
	err  error
}

// refDecode drains src through the reference decoder.
func refDecode(src io.Reader) decoded {
	r, err := newRefReader(src)
	if err != nil {
		return decoded{err: err}
	}
	var d decoded
	for {
		rec, err := r.Read()
		if err != nil {
			d.err = err
			return d
		}
		d.recs = append(d.recs, rec)
	}
}

// windowDecode drains src through rd after a Reset, checking Count as it
// goes.
func windowDecode(t *testing.T, rd *Reader, src io.Reader) decoded {
	t.Helper()
	if err := rd.Reset(src); err != nil {
		return decoded{err: err}
	}
	var d decoded
	for {
		rec, err := rd.Read()
		if err != nil {
			d.err = err
			return d
		}
		d.recs = append(d.recs, rec)
		if rd.Count() != uint64(len(d.recs)) {
			t.Fatalf("Count = %d after %d records", rd.Count(), len(d.recs))
		}
	}
}

// errClass names the kind of a decode error, the granularity at which the
// window decoder must agree with the reference: header, bad magic, clean
// end, truncation, varint overflow, invalid class, or a source error,
// which must pass through unchanged.
func errClass(err error) string {
	switch {
	case err == io.EOF:
		return "eof"
	case err == ErrBadMagic:
		return "bad magic"
	case err == ErrTruncated:
		return "truncated"
	case err == errVarintOverflow:
		return "overflow"
	case err == nil:
		return "nil"
	case strings.HasPrefix(err.Error(), "trace: reading header: "):
		return "header: " + errClass(errors.Unwrap(err))
	case strings.HasPrefix(err.Error(), "trace: corrupt record: "):
		return "corrupt"
	default:
		return "source: " + err.Error()
	}
}

// sameDecode fails t unless got and want delivered the same records and
// ended with errors of the same class.
func sameDecode(t *testing.T, label string, got, want decoded) {
	t.Helper()
	if len(got.recs) != len(want.recs) {
		t.Fatalf("%s: %d records (%v), reference %d (%v)", label, len(got.recs), got.err, len(want.recs), want.err)
	}
	for i := range want.recs {
		if got.recs[i] != want.recs[i] {
			t.Fatalf("%s: record %d = %+v, reference %+v", label, i, got.recs[i], want.recs[i])
		}
	}
	if g, w := errClass(got.err), errClass(want.err); g != w {
		t.Fatalf("%s: ended with %v (%s), reference %v (%s)", label, got.err, g, want.err, w)
	}
}

// blockDecode drains src through rd.ReadBlock after a Reset, into one
// block of capacity bcap reused throughout, checking every block it gets
// back: at most bcap records, at least one unless the stream has ended or
// failed, derived lanes that match the records, and Count in step.
func blockDecode(t *testing.T, rd *Reader, src io.Reader, b *Block, bcap int) decoded {
	t.Helper()
	if err := rd.Reset(src); err != nil {
		return decoded{err: err}
	}
	var d decoded
	for {
		err := rd.ReadBlock(b)
		if cap(b.Meta) != bcap || b.Len() > bcap {
			t.Fatalf("cap %d: block of %d records, lane capacity %d", bcap, b.Len(), cap(b.Meta))
		}
		if err == io.EOF && b.Len() > 0 || err == nil && b.Len() == 0 {
			t.Fatalf("cap %d: %d records with error %v", bcap, b.Len(), err)
		}
		recs := BlocksRecords([]Block{*b})
		if want := BlocksSized(recs, bcap); len(recs) > 0 && !sameDerivedLanes(b, &want[0]) {
			t.Fatalf("cap %d: derived lanes %v %v %d, want %v %v %d", bcap,
				b.MTIdx, b.PIBIdx, b.GapSum, want[0].MTIdx, want[0].PIBIdx, want[0].GapSum)
		}
		d.recs = append(d.recs, recs...)
		if rd.Count() != uint64(len(d.recs)) {
			t.Fatalf("cap %d: Count = %d after %d records", bcap, rd.Count(), len(d.recs))
		}
		if err != nil {
			d.err = err
			return d
		}
	}
}

// sameDerivedLanes reports whether two blocks over the same records agree
// on the lanes derived from them.
func sameDerivedLanes(a, b *Block) bool {
	return slices.Equal(a.MTIdx, b.MTIdx) && slices.Equal(a.PIBIdx, b.PIBIdx) && a.GapSum == b.GapSum
}

// blockDecodeCaps are the block capacities FuzzReader drives ReadBlock at:
// one record, a small odd count, and the capacity of a ProcessReader ring
// slot (sim.SlotCap, BlockCap over its four slots).
var blockDecodeCaps = []int{1, 7, BlockCap / 4}

// FuzzReader checks the window decoder against the byte-at-a-time
// reference on arbitrary bytes: the same records and the same error class,
// whether the source hands over the whole stream, half of each Read or one
// byte per Read, whether the Reader is fresh or was Reset after a failed
// stream, and whether the records come one at a time from Read or in
// blocks of any capacity from ReadBlock.
func FuzzReader(f *testing.F) {
	valid := encodeRecords(f, sampleRecords())
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte("IBT2"))
	f.Add([]byte("IBT2\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Add([]byte("IBT2\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Add([]byte("IBT2\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02\x00\x00"))
	// Three maximal varints, then a fourth field of ten continuation
	// bytes: deciding overflow needs a byte past one maximal record.
	long := "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"
	f.Add([]byte("IBT2\x20" + long + long + long + strings.Repeat("\xff", 10)))
	f.Add([]byte("IBT2\x20" + long + long + long + strings.Repeat("\xff", 11)))
	f.Add([]byte("IBT2\x07\x00\x00\x00"))
	f.Add([]byte("IBX2"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		want := refDecode(bytes.NewReader(data))
		var rd Reader
		sameDecode(t, "fresh", windowDecode(t, &rd, bytes.NewReader(data)), want)
		sameDecode(t, "one byte per Read", windowDecode(t, &rd, iotest.OneByteReader(bytes.NewReader(data))), want)
		// A truncated stream leaves the reader mid-record with a held
		// error; Reset must discard all of it.
		windowDecode(t, &rd, bytes.NewReader(valid[:len(valid)-3]))
		sameDecode(t, "Reset after truncation", windowDecode(t, &rd, bytes.NewReader(data)), want)
		for _, bcap := range blockDecodeCaps {
			b := NewBlock(bcap)
			for _, src := range []struct {
				name string
				r    io.Reader
			}{
				{"whole stream", bytes.NewReader(data)},
				{"half of each Read", iotest.HalfReader(bytes.NewReader(data))},
				{"one byte per Read", iotest.OneByteReader(bytes.NewReader(data))},
			} {
				label := fmt.Sprintf("ReadBlock cap %d, %s", bcap, src.name)
				sameDecode(t, label, blockDecode(t, &rd, src.r, &b, bcap), want)
			}
		}
	})
}

// FuzzRoundTrip checks that any encodable record survives a round trip.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(0x120000000), uint64(0x140000abc), uint8(3), true, true, uint32(12), uint32(0))
	f.Add(uint64(0), uint64(0), uint8(0), false, false, uint32(0), uint32(99))
	f.Add(^uint64(0), uint64(1), uint8(6), true, false, ^uint32(0), ^uint32(0))

	f.Fuzz(func(t *testing.T, pc, tgt uint64, class uint8, taken, mt bool, gap, value uint32) {
		rec := Record{
			PC: pc, Target: tgt, Class: Class(class % 7),
			Taken: taken, MT: mt, Gap: gap, Value: value,
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		if got != rec {
			t.Fatalf("round trip: got %+v, want %+v", got, rec)
		}
	})
}
