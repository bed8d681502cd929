package trace

import (
	"bytes"
	"testing"

	"repro/internal/race"
)

// encodeRecords returns the IBT2 bytes of recs.
func encodeRecords(t testing.TB, recs []Record) []byte {
	t.Helper()
	data, err := Encode(recs)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestReaderReset(t *testing.T) {
	first := blockRecords(100)
	second := sampleRecords()
	firstData := encodeRecords(t, first)
	secondData := encodeRecords(t, second)

	rd, err := NewReader(bytes.NewReader(firstData))
	if err != nil {
		t.Fatal(err)
	}
	rd.SetSizeHint(len(first))
	got, err := rd.ReadAll()
	if err != nil || len(got) != len(first) {
		t.Fatalf("first drain: %d records, err %v", len(got), err)
	}

	// Reset onto a fresh stream: header revalidated, delta state, record
	// count and size hint all rewound.
	if err := rd.Reset(bytes.NewReader(secondData)); err != nil {
		t.Fatal(err)
	}
	if rd.Count() != 0 {
		t.Errorf("Count = %d after Reset, want 0", rd.Count())
	}
	got, err = rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(second) {
		t.Fatalf("post-Reset drain: %d records, want %d", len(got), len(second))
	}
	for i := range second {
		if got[i] != second[i] {
			t.Errorf("post-Reset record %d: got %+v, want %+v", i, got[i], second[i])
		}
	}

	if err := rd.Reset(bytes.NewReader([]byte("NOPE...."))); err != ErrBadMagic {
		t.Errorf("Reset onto bad magic: err = %v, want ErrBadMagic", err)
	}
	if err := rd.Reset(bytes.NewReader([]byte("IB"))); err == nil {
		t.Error("Reset onto a short header succeeded")
	}
}

// TestReadAllResetAllocs pins the decode path's allocation behaviour: a
// Reader re-armed with Reset reuses its buffered reader and varint scratch
// state, so draining a trace with an accurate size hint costs exactly one
// allocation — the result slice itself.
func TestReadAllResetAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc counts asserted in the non-race run")
	}
	recs := blockRecords(5000)
	data := encodeRecords(t, recs)

	src := bytes.NewReader(data)
	rd, err := NewReader(src)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		src.Reset(data)
		if err := rd.Reset(src); err != nil {
			t.Fatal(err)
		}
		rd.SetSizeHint(len(recs))
		got, err := rd.ReadAll()
		if err != nil || len(got) != len(recs) {
			t.Fatalf("drain: %d records, err %v", len(got), err)
		}
	})
	if avg != 1 {
		t.Errorf("ReadAll on a Reset reader: %.2f allocs per drain, want exactly 1 (the result slice)", avg)
	}
}
