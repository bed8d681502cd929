package history

import (
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

func rec(class trace.Class, target uint64, mt bool) trace.Record {
	return trace.Record{PC: 0x12000000, Target: target, Class: class, Taken: true, MT: mt}
}

func TestStreamAccepts(t *testing.T) {
	cases := []struct {
		stream Stream
		rec    trace.Record
		want   bool
	}{
		{AllBranches, rec(trace.CondDirect, 4, false), true},
		{AllBranches, rec(trace.Return, 4, false), true},
		{IndirectBranches, rec(trace.IndirectJmp, 4, false), true},
		{IndirectBranches, rec(trace.IndirectJsr, 4, true), true},
		{IndirectBranches, rec(trace.Return, 4, false), false},
		{IndirectBranches, rec(trace.CondDirect, 4, false), false},
		{MTIndirectBranches, rec(trace.IndirectJmp, 4, true), true},
		{MTIndirectBranches, rec(trace.IndirectJmp, 4, false), false},
		{MTIndirectBranches, rec(trace.IndirectJsr, 4, false), false},
	}
	for _, c := range cases {
		if got := c.stream.Accepts(c.rec); got != c.want {
			t.Errorf("%v.Accepts(%v) = %v, want %v", c.stream, c.rec, got, c.want)
		}
	}
}

// TestStreamLane: a stream's lane lists exactly the positions Accepts
// takes, and PB, which has no lane, is rejected by HasLane.
func TestStreamLane(t *testing.T) {
	var recs []trace.Record
	for _, c := range []trace.Class{trace.CondDirect, trace.IndirectJmp, trace.Return, trace.IndirectJsr, trace.DirectCall} {
		recs = append(recs, rec(c, 4, false), rec(c, 8, true))
	}
	b := &trace.Blocks(recs)[0]
	for _, s := range []Stream{IndirectBranches, MTIndirectBranches} {
		var want []int32
		for i, r := range recs {
			if s.Accepts(r) {
				want = append(want, int32(i))
			}
		}
		got := s.Lane(b)
		if !s.HasLane() || len(got) != len(want) {
			t.Fatalf("%v: HasLane %v, lane %v, want %v", s, s.HasLane(), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%v lane = %v, want %v", s, got, want)
				break
			}
		}
	}
	if AllBranches.HasLane() || AllBranches.Lane(b) != nil {
		t.Error("PB stream reports a lane")
	}
}

func TestPHRRecentOrder(t *testing.T) {
	p := New(AllBranches, 4, 2, 8)
	for i := uint64(1); i <= 6; i++ {
		p.Push(i * 4)
	}
	got := p.Recent(nil, 4)
	want := []uint64{24, 20, 16, 12}
	if len(got) != len(want) {
		t.Fatalf("Recent length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Recent[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestPHRRecentWarmup(t *testing.T) {
	p := New(AllBranches, 8, 2, 0)
	p.Push(100)
	got := p.Recent(nil, 8)
	if len(got) != 1 || got[0] != 100 {
		t.Fatalf("warm-up Recent = %v", got)
	}
	if p.Len() != 1 {
		t.Errorf("Len = %d, want 1", p.Len())
	}
}

func TestPHRPacked(t *testing.T) {
	// bitsPer=2, packedBits=6: each push shifts in (target>>2)&3.
	p := New(AllBranches, 4, 2, 6)
	p.Push(0x4) // (0x4>>2)&3 = 1
	p.Push(0x8) // 2
	p.Push(0xc) // 3
	want := uint64(1)<<4 | 2<<2 | 3
	if got := p.Packed(); got != want {
		t.Fatalf("Packed = %#b, want %#b", got, want)
	}
	p.Push(0x4) // shifts oldest bits out
	want = (want<<2 | 1) & 0x3f
	if got := p.Packed(); got != want {
		t.Fatalf("Packed after wrap = %#b, want %#b", got, want)
	}
}

func TestPHRObserveFilters(t *testing.T) {
	p := New(IndirectBranches, 4, 2, 8)
	if p.Observe(rec(trace.CondDirect, 0x10, false)) {
		t.Error("PIB register accepted a conditional branch")
	}
	if !p.Observe(rec(trace.IndirectJmp, 0x20, true)) {
		t.Error("PIB register rejected an indirect jmp")
	}
	if p.Len() != 1 {
		t.Errorf("Len = %d after one accepted record", p.Len())
	}
}

func TestPHRReset(t *testing.T) {
	p := New(AllBranches, 4, 2, 8)
	p.Push(4)
	p.Push(8)
	p.Reset()
	if p.Len() != 0 || p.Packed() != 0 || len(p.Recent(nil, 4)) != 0 {
		t.Error("Reset did not clear the register")
	}
}

func TestPHRPackedMatchesManualShift(t *testing.T) {
	f := func(targets []uint64) bool {
		const bitsPer, width = 3, 12
		p := New(AllBranches, 4, bitsPer, width)
		var manual uint64
		for _, tgt := range targets {
			p.Push(tgt)
			manual = (manual<<bitsPer | ((tgt >> 2) & (1<<bitsPer - 1))) & (1<<width - 1)
		}
		return p.Packed() == manual
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewPanicsOnBadDepth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(depth=0) did not panic")
		}
	}()
	New(AllBranches, 0, 2, 8)
}
