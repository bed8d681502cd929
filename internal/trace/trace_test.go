package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestClassProperties(t *testing.T) {
	cases := []struct {
		c           Class
		indirect    bool
		conditional bool
		name        string
	}{
		{CondDirect, false, true, "cond"},
		{UncondDirect, false, false, "br"},
		{DirectCall, false, false, "bsr"},
		{IndirectJmp, true, false, "jmp"},
		{IndirectJsr, true, false, "jsr"},
		{Return, true, false, "ret"},
		{JsrCoroutine, true, false, "jsr_coroutine"},
	}
	for _, c := range cases {
		if c.c.Indirect() != c.indirect {
			t.Errorf("%v.Indirect() = %v", c.c, c.c.Indirect())
		}
		if c.c.Conditional() != c.conditional {
			t.Errorf("%v.Conditional() = %v", c.c, c.c.Conditional())
		}
		if c.c.String() != c.name {
			t.Errorf("%v.String() = %q, want %q", c.c, c.c.String(), c.name)
		}
		if !c.c.Valid() {
			t.Errorf("%v not valid", c.c)
		}
	}
	if Class(200).Valid() {
		t.Error("Class(200) reported valid")
	}
	if !strings.Contains(Class(200).String(), "200") {
		t.Error("invalid class String should include the raw value")
	}
}

func TestMTIndirect(t *testing.T) {
	mt := Record{Class: IndirectJmp, MT: true}
	if !mt.MTIndirect() {
		t.Error("MT jmp not MTIndirect")
	}
	if (Record{Class: IndirectJmp, MT: false}).MTIndirect() {
		t.Error("ST jmp is MTIndirect")
	}
	if (Record{Class: Return, MT: true}).MTIndirect() {
		t.Error("ret counted as MTIndirect")
	}
	if (Record{Class: CondDirect, MT: true}).MTIndirect() {
		t.Error("conditional counted as MTIndirect")
	}
}

func TestPIBStream(t *testing.T) {
	if !(Record{Class: IndirectJsr}).PIBStream() || !(Record{Class: IndirectJmp}).PIBStream() {
		t.Error("jmp/jsr must be in the PIB stream")
	}
	if (Record{Class: Return}).PIBStream() {
		t.Error("ret must not be in the PIB stream")
	}
}

func TestRecordString(t *testing.T) {
	r := Record{PC: 0x1000, Target: 0x2000, Class: IndirectJsr, Taken: true, MT: true, Gap: 7}
	s := r.String()
	for _, want := range []string{"jsr", "0x1000", "0x2000", "MT", "gap=7"} {
		if !strings.Contains(s, want) {
			t.Errorf("Record.String() = %q missing %q", s, want)
		}
	}
}

func sampleRecords() []Record {
	return []Record{
		{PC: 0x120000000, Target: 0x120000080, Class: CondDirect, Taken: true, Gap: 3},
		{PC: 0x120000010, Target: 0x120000014, Class: CondDirect, Taken: false, Gap: 0},
		{PC: 0x120000020, Target: 0x140000abc, Class: IndirectJmp, Taken: true, MT: true, Gap: 12},
		{PC: 0x120000030, Target: 0x150000040, Class: DirectCall, Taken: true, Gap: 5},
		{PC: 0x150000060, Target: 0x120000034, Class: Return, Taken: true, Gap: 2},
		{PC: 0x120000040, Target: 0x160010000, Class: IndirectJsr, Taken: true, MT: false, Gap: 1},
		{PC: 0x120000050, Target: 0x140000fe0, Class: IndirectJsr, Taken: true, MT: true, Gap: 0xffff},
		{PC: 0x120000060, Target: 0x140001200, Class: IndirectJmp, Taken: true, MT: true, Gap: 3, Value: 17},
	}
}

func TestIORoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != uint64(len(recs)) {
		t.Errorf("writer Count = %d, want %d", w.Count(), len(recs))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
	if r.Count() != uint64(len(recs)) {
		t.Errorf("reader Count = %d, want %d", r.Count(), len(recs))
	}
}

func TestIORoundTripProperty(t *testing.T) {
	f := func(pcs, tgts []uint64, classes []uint8, gaps []uint32) bool {
		n := len(pcs)
		for _, l := range []int{len(tgts), len(classes), len(gaps)} {
			if l < n {
				n = l
			}
		}
		recs := make([]Record, n)
		for i := 0; i < n; i++ {
			recs[i] = Record{
				PC:     pcs[i],
				Target: tgts[i],
				Class:  Class(classes[i] % 7),
				Taken:  classes[i]%2 == 0,
				MT:     classes[i]%3 == 0,
				Gap:    gaps[i],
				Value:  uint32(classes[i]) % 5,
			}
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		rd, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := rd.ReadAll()
		if err != nil {
			return false
		}
		if len(got) != n {
			return false
		}
		for i := range got {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReaderBadMagic(t *testing.T) {
	if _, err := NewReader(strings.NewReader("NOPE....")); err != ErrBadMagic {
		t.Errorf("bad magic error = %v, want ErrBadMagic", err)
	}
	if _, err := NewReader(strings.NewReader("IB")); err == nil {
		t.Error("short header accepted")
	}
}

func TestReaderTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	_ = w.Write(sampleRecords()[0])
	_ = w.Flush()
	data := buf.Bytes()

	// Chop the last byte: the final record must surface an error, not EOF.
	r, err := NewReader(bytes.NewReader(data[:len(data)-1]))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Read()
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated read error = %v, want ErrTruncated", err)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("ErrTruncated must wrap io.ErrUnexpectedEOF, got %v", err)
	}
}

// TestReaderTruncatedEveryPrefix slices a valid multi-record trace at every
// byte offset past the header. Whatever the cut point, the reader must
// either drain cleanly (the cut landed on a record boundary — io.EOF) or
// report ErrTruncated (the cut landed mid-record); a bare decode error or a
// silent truncation would make the server 500 a bad upload instead of
// 400ing it.
func TestReaderTruncatedEveryPrefix(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	boundaries := 0
	for cut := len(magic); cut <= len(data); cut++ {
		r, err := NewReader(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatalf("cut=%d: NewReader: %v", cut, err)
		}
		n := 0
		for {
			_, err := r.Read()
			if err == nil {
				n++
				continue
			}
			if err == io.EOF {
				boundaries++
				if cut == len(data) && n != len(recs) {
					t.Errorf("full trace decoded %d records, want %d", n, len(recs))
				}
				break
			}
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("cut=%d after %d records: error = %v, want ErrTruncated", cut, n, err)
			}
			if cut == len(data) {
				t.Fatalf("untruncated trace reported ErrTruncated after %d records", n)
			}
			break
		}
		if n > len(recs) {
			t.Fatalf("cut=%d: decoded %d records from a %d-record trace", cut, n, len(recs))
		}
	}
	// One clean EOF per record boundary (after each record, including the
	// full trace) — anything else means boundary detection drifted.
	if boundaries != len(recs)+1 {
		t.Errorf("clean-EOF prefixes = %d, want %d (one per record boundary plus the empty body)", boundaries, len(recs)+1)
	}
}

func TestWriterRejectsInvalidClass(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	if err := w.Write(Record{Class: Class(99)}); err == nil {
		t.Error("invalid class accepted")
	}
}

func TestReaderEOF(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	_ = w.Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("empty trace read error = %v, want EOF", err)
	}
}

func BenchmarkWriter(b *testing.B) {
	recs := sampleRecords()
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.Write(recs[i%len(recs)])
		if buf.Len() > 1<<24 {
			b.StopTimer()
			buf.Reset()
			b.StartTimer()
		}
	}
}

func BenchmarkReader(b *testing.B) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	recs := sampleRecords()
	for i := 0; i < 10000; i++ {
		_ = w.Write(recs[i%len(recs)])
	}
	_ = w.Flush()
	data := buf.Bytes()
	b.ResetTimer()
	r, _ := NewReader(bytes.NewReader(data))
	for i := 0; i < b.N; i++ {
		if _, err := r.Read(); err == io.EOF {
			r, _ = NewReader(bytes.NewReader(data))
		}
	}
}

// TestReadAllSizeHintAvoidsReallocation round-trips a trace whose record
// count is known from the writer side: with the hint set, ReadAll's single
// preallocation must survive the whole drain (cap unchanged ⇒ no growth).
func TestReadAllSizeHintAvoidsReallocation(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	for i := 0; i < n; i++ {
		rec := Record{PC: 0x1000 + uint64(i)*4, Target: 0x9000 + uint64(i%7)*16,
			Class: IndirectJsr, Taken: true, MT: i%3 == 0, Gap: uint32(i % 5)}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	r.SetSizeHint(int(w.Count()))
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("read %d records, want %d", len(got), n)
	}
	if cap(got) != n {
		t.Errorf("cap %d after drain, hint %d — ReadAll reallocated", cap(got), n)
	}

	// Hints are advisory: a short hint still reads everything.
	r2, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	r2.SetSizeHint(10)
	short, err := r2.ReadAll()
	if err != nil || len(short) != n {
		t.Fatalf("short-hint drain: %d records, err %v", len(short), err)
	}
}

// TestReadAllAdversarialSizeHint pins the fix for the unclamped-hint OOM:
// a hint claiming multiple GiB of records over a 3-record stream used to
// translate directly into make([]Record, 0, hint) — tens of GiB for a
// 56-byte Record — before a single byte was decoded. The preallocation must
// stay bounded regardless of the hint, and the stream must still drain
// fully.
func TestReadAllAdversarialSizeHint(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Write(Record{PC: 0x1000 + uint64(i)*4, Target: 0x9000, Class: IndirectJmp, Taken: true, MT: true}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// A trillion-record claim (2^40, or the largest int where int is 32
	// bits): tens of TiB, or tens of GiB, of Records if honored. If the
	// clamp regresses, this test dies with OOM rather than failing an
	// assertion — either way CI catches it.
	hint := uint64(1) << 40
	if hint > math.MaxInt {
		hint = math.MaxInt
	}
	r.SetSizeHint(int(hint))
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("read %d records, want 3", len(got))
	}
	if cap(got) > maxReadAllPrealloc {
		t.Errorf("cap %d exceeds the preallocation clamp %d", cap(got), maxReadAllPrealloc)
	}
}
