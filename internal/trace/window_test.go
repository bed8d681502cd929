package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// sourceShapes wrap a stream in the testing/iotest readers whose Read
// shapes a decoder must not care about: short reads, data delivered with
// io.EOF, and a timeout error on the second Read.
var sourceShapes = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"bytes", func(r io.Reader) io.Reader { return r }},
	{"OneByteReader", iotest.OneByteReader},
	{"HalfReader", iotest.HalfReader},
	{"DataErrReader", iotest.DataErrReader},
	{"UnexpectedEOF", func(r io.Reader) io.Reader { return unexpectedEOF{r} }},
	{"TimeoutReader", iotest.TimeoutReader},
}

// unexpectedEOF ends its stream with io.ErrUnexpectedEOF instead of
// io.EOF, as some decompressors do; the Reader must treat both alike.
type unexpectedEOF struct{ r io.Reader }

func (u unexpectedEOF) Read(p []byte) (int, error) {
	n, err := u.r.Read(p)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

// stalled returns (0, nil) from its first empty Reads, then reads from r.
type stalled struct {
	empty int
	r     io.Reader
}

func (s *stalled) Read(p []byte) (int, error) {
	if s.empty > 0 {
		s.empty--
		return 0, nil
	}
	return s.r.Read(p)
}

// TestReaderSourceShapes decodes a trace several windows long through each
// source shape. Every shape but the timeout must deliver the whole trace;
// the timeout must surface iotest.ErrTimeout itself, after exactly the
// records the reference decoder delivers.
func TestReaderSourceShapes(t *testing.T) {
	recs := blockRecords(30000)
	data := encodeRecords(t, recs)
	if len(data) < 2*windowSize {
		t.Fatalf("sample trace is %d bytes, want at least two windows", len(data))
	}
	var rd Reader
	for _, sh := range sourceShapes {
		got := windowDecode(t, &rd, sh.wrap(bytes.NewReader(data)))
		sameDecode(t, sh.name, got, refDecode(sh.wrap(bytes.NewReader(data))))
		if sh.name == "TimeoutReader" {
			if !errors.Is(got.err, iotest.ErrTimeout) || errors.Is(got.err, ErrTruncated) {
				t.Errorf("TimeoutReader: ended with %v, want iotest.ErrTimeout", got.err)
			}
			continue
		}
		if got.err != io.EOF || len(got.recs) != len(recs) {
			t.Errorf("%s: %d of %d records, ended with %v", sh.name, len(got.recs), len(recs), got.err)
		}
	}
}

// TestReaderCutEveryOffset cuts a trace at every byte offset and decodes
// each prefix through every source shape but the timeout. A cut inside
// the header fails Reset; a cut on a record boundary delivers the records
// before it and io.EOF; a cut inside a record delivers the same records
// and ErrTruncated.
func TestReaderCutEveryOffset(t *testing.T) {
	recs := append(sampleRecords(), blockRecords(40)...)
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ends := map[int]int{} // byte offset of a record boundary -> records before it
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	ends[buf.Len()] = 0
	for i, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		ends[buf.Len()] = i + 1
	}
	data := buf.Bytes()

	var rd Reader
	for _, sh := range sourceShapes[:len(sourceShapes)-1] {
		for cut := 0; cut <= len(data); cut++ {
			got := windowDecode(t, &rd, sh.wrap(bytes.NewReader(data[:cut])))
			if cut < len(magic) {
				if !strings.HasPrefix(errClass(got.err), "header: ") {
					t.Fatalf("%s cut %d: header cut ended with %v", sh.name, cut, got.err)
				}
				sameDecode(t, sh.name, got, refDecode(sh.wrap(bytes.NewReader(data[:cut]))))
				continue
			}
			n, boundary := ends[cut]
			want := io.EOF
			if !boundary {
				want = ErrTruncated
				for k := cut; !boundary; k-- {
					n, boundary = ends[k]
				}
			}
			if got.err != want || len(got.recs) != n {
				t.Fatalf("%s cut %d: %d records then %v, want %d then %v", sh.name, cut, len(got.recs), got.err, n, want)
			}
			for i := range got.recs {
				if got.recs[i] != recs[i] {
					t.Fatalf("%s cut %d: record %d = %+v, want %+v", sh.name, cut, i, got.recs[i], recs[i])
				}
			}
		}
	}
}

// TestResetAfterFailedStream fails a Reader every way a stream can fail,
// then Resets it onto a good trace and onto each failing stream again: the
// outcome must match a fresh NewReader's every time.
func TestResetAfterFailedStream(t *testing.T) {
	recs := blockRecords(2000)
	valid := encodeRecords(t, recs)
	fault := errors.New("injected device fault")
	long := []byte("\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff")
	failing := map[string]func() io.Reader{
		"truncated":     func() io.Reader { return bytes.NewReader(valid[:len(valid)-2]) },
		"short header":  func() io.Reader { return bytes.NewReader(valid[:2]) },
		"bad magic":     func() io.Reader { return bytes.NewReader([]byte("NOPE1234")) },
		"overflow":      func() io.Reader { return bytes.NewReader(append([]byte("IBT2\x00"), long...)) },
		"invalid class": func() io.Reader { return bytes.NewReader([]byte("IBT2\x07\x00\x00\x00")) },
		"source error": func() io.Reader {
			return io.MultiReader(bytes.NewReader(valid[:len(valid)/2]), iotest.ErrReader(fault))
		},
		"timeout": func() io.Reader { return iotest.TimeoutReader(bytes.NewReader(valid)) },
	}
	fresh := func(src io.Reader) decoded {
		rd, err := NewReader(src)
		if err != nil {
			return decoded{err: err}
		}
		recs, err := rd.ReadAll()
		if err == nil {
			err = io.EOF
		}
		return decoded{recs: recs, err: err}
	}
	for name, src := range failing {
		var rd Reader
		first := windowDecode(t, &rd, src())
		if first.err == io.EOF {
			t.Fatalf("%s: stream did not fail", name)
		}
		sameDecode(t, name+": first pass", first, fresh(src()))
		sameDecode(t, name+": Reset onto a good trace", windowDecode(t, &rd, bytes.NewReader(valid)), decoded{recs: recs, err: io.EOF})
		windowDecode(t, &rd, src())
		for other, src2 := range failing {
			sameDecode(t, name+" then "+other, windowDecode(t, &rd, src2()), fresh(src2()))
		}
	}
}

// TestReaderNoProgress pins the bound on empty reads: a source that keeps
// returning neither data nor an error fails with io.ErrNoProgress, while
// one that stalls briefly is read through.
func TestReaderNoProgress(t *testing.T) {
	recs := sampleRecords()
	data := encodeRecords(t, recs)
	var rd Reader
	if got := windowDecode(t, &rd, &stalled{empty: maxEmptyReads - 1, r: bytes.NewReader(data)}); got.err != io.EOF || len(got.recs) != len(recs) {
		t.Errorf("brief stall: %d records then %v, want %d then EOF", len(got.recs), got.err, len(recs))
	}
	if got := windowDecode(t, &rd, &stalled{empty: maxEmptyReads, r: bytes.NewReader(data)}); !errors.Is(got.err, io.ErrNoProgress) {
		t.Errorf("stalled header: ended with %v, want io.ErrNoProgress", got.err)
	}
	if err := rd.Reset(bytes.NewReader(data[:8])); err != nil {
		t.Fatal(err)
	}
	rd.src = &stalled{empty: maxEmptyReads, r: bytes.NewReader(data[8:])}
	if _, err := rd.Read(); err != io.ErrNoProgress {
		t.Errorf("stalled body: Read = %v, want io.ErrNoProgress", err)
	}
}
