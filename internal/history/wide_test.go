package history

import "testing"

// TestNewRejectsWideRegisters pins the bug fix: New used to clamp
// packedBits to 64 silently, truncating geometric histories; it must now
// refuse and point callers at NewWide.
func TestNewRejectsWideRegisters(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(packedBits=65) did not panic")
		}
	}()
	New(AllBranches, 4, 2, 65)
}

func TestNewWideMatchesNewAtOrBelow64(t *testing.T) {
	for _, bits := range []uint{0, 1, 10, 63, 64} {
		a := New(AllBranches, 8, 2, bits)
		b := NewWide(AllBranches, 8, 2, bits)
		for i := uint64(0); i < 100; i++ {
			tgt := (i*0x9E37_79B9 + 7) << 2
			a.Push(tgt)
			b.Push(tgt)
			if a.Packed() != b.Packed() {
				t.Fatalf("bits=%d push %d: New packed %#x, NewWide %#x", bits, i, a.Packed(), b.Packed())
			}
		}
	}
}

// TestWidePackedBitsPast64AreLive is the regression test for the silent
// clamp: a target pushed 33 two-bit items ago lives at packed bits 66..67,
// and changing it must change the register's folded view — under the old
// clamp the two histories below were indistinguishable.
func TestWidePackedBitsPast64AreLive(t *testing.T) {
	build := func(old uint64) *PHR {
		p := NewWide(MTIndirectBranches, 64, 2, 128)
		p.Push(old << 2) // will sit 33 pushes deep: bits [66, 68)
		for i := 0; i < 33; i++ {
			p.Push(0)
		}
		return p
	}
	a, b := build(1), build(2)
	if a.Packed() != b.Packed() {
		t.Fatalf("low words must agree: %#x vs %#x", a.Packed(), b.Packed())
	}
	if a.FoldPacked(128, 10) == b.FoldPacked(128, 10) {
		t.Fatal("bit 66 did not reach the folded view: the >64-bit history is dead")
	}
	// The fold of only the first 64 bits must still agree — the divergence
	// is attributable to the wide half alone.
	if a.FoldPacked(64, 10) != b.FoldPacked(64, 10) {
		t.Fatal("folds of the low 64 bits should be identical")
	}
}

func TestPeek(t *testing.T) {
	p := New(AllBranches, 4, 2, 8)
	if got := p.Peek(0); got != 0 {
		t.Fatalf("unwritten slots read zero, got %#x", got)
	}
	p.Push(4)
	p.Push(8)
	if got := p.Peek(0); got != 8 {
		t.Fatalf("Peek(0) = %#x, want 8", got)
	}
	if got := p.Peek(1); got != 4 {
		t.Fatalf("Peek(1) = %#x, want 4", got)
	}
	if got := p.Peek(3); got != 0 {
		t.Fatalf("Peek(3) should read warm-up zero, got %#x", got)
	}
	p.Push(12)
	p.Push(16)
	p.Push(20) // wraps: 4 falls out
	if got := p.Peek(3); got != 8 {
		t.Fatalf("Peek(3) after wrap = %#x, want 8", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Peek(4) out of depth did not panic")
		}
	}()
	p.Peek(4)
}

// TestWideSnapshotRestoreAndReset requires Reset to clear every word of a
// wide register. (Its in-memory snapshot and restore are gone; the durable
// form is Walk, covered by the state package's round trips.)
func TestWideSnapshotRestoreAndReset(t *testing.T) {
	p := NewWide(AllBranches, 70, 2, 130)
	for i := uint64(1); i <= 100; i++ {
		p.Push(i << 2)
	}
	if p.FoldPacked(130, 24) == 0 || p.Packed() == 0 {
		t.Fatal("pushes left the wide register empty")
	}
	p.Reset()
	if p.FoldPacked(130, 24) != 0 || p.Packed() != 0 || p.Len() != 0 {
		t.Fatal("reset left wide state behind")
	}
	if p.PackedBits() != 130 {
		t.Fatalf("PackedBits = %d", p.PackedBits())
	}
}
