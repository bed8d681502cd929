package hashing

import "testing"

// refFoldWindow is a bit-by-bit reference for the fold of a sliding window:
// item j (0 = newest) occupies bit positions [j*bitsPer, (j+1)*bitsPer), and
// each set bit p contributes to folded bit p mod out.
func refFoldWindow(items []uint64, bitsPer, out uint) uint64 {
	var folded uint64
	for j, it := range items {
		for b := uint(0); b < bitsPer && b < 64; b++ {
			if it&(uint64(1)<<b) != 0 {
				folded ^= uint64(1) << ((uint(j)*bitsPer + b) % out)
			}
		}
	}
	return folded
}

// packWindow builds the little-endian multi-word packed register for a
// window (newest item in the low bits).
func packWindow(items []uint64, bitsPer uint) []uint64 {
	words := make([]uint64, (uint(len(items))*bitsPer+63)/64+1)
	for j, it := range items {
		it &= Mask(bitsPer)
		lo := uint(j) * bitsPer
		words[lo/64] |= it << (lo % 64)
		if lo%64+bitsPer > 64 {
			words[lo/64+1] |= it >> (64 - lo%64)
		}
	}
	return words
}

func TestRotL(t *testing.T) {
	if got := RotL(0b1011, 1, 4); got != 0b0111 {
		t.Fatalf("RotL(1011,1,4) = %04b", got)
	}
	if got := RotL(0b1011, 5, 4); got != 0b0111 {
		t.Fatalf("RotL reduces r mod out: got %04b", got)
	}
	if got := RotL(0xFFFF_FFFF_FFFF_FFFF, 13, 64); got != ^uint64(0) {
		t.Fatalf("RotL full-width all-ones = %x", got)
	}
	if got := RotL(1, 0, 7); got != 1 {
		t.Fatalf("RotL r=0 identity: got %x", got)
	}
}

func TestFoldWordsMatchesFoldSingleWord(t *testing.T) {
	rng := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 200; i++ {
		rng = Mix64(rng + uint64(i))
		for _, in := range []uint{1, 7, 13, 32, 64} {
			for _, out := range []uint{1, 5, 8, 24, 64} {
				want := Fold(rng, in, out)
				got := FoldWords([]uint64{rng}, in, out)
				if got != want {
					t.Fatalf("FoldWords(in=%d,out=%d) = %x, Fold = %x", in, out, got, want)
				}
			}
		}
	}
}

func TestFoldWordsMatchesBitReference(t *testing.T) {
	rng := uint64(1)
	for trial := 0; trial < 50; trial++ {
		words := make([]uint64, 3)
		for i := range words {
			rng = Mix64(rng + uint64(trial))
			words[i] = rng
		}
		for _, in := range []uint{1, 63, 64, 65, 100, 128, 130, 192} {
			for _, out := range []uint{1, 8, 9, 10, 24, 64} {
				var want uint64
				for p := uint(0); p < in; p++ {
					if words[p/64]&(uint64(1)<<(p%64)) != 0 {
						want ^= uint64(1) << (p % out)
					}
				}
				if got := FoldWords(words, in, out); got != want {
					t.Fatalf("FoldWords(in=%d,out=%d) = %x, want %x", in, out, got, want)
				}
			}
		}
	}
}

// TestFoldedMatchesFromScratch is the load-bearing identity: the incremental
// register equals the from-scratch fold of its window after every push,
// including during zero-filled warm-up — for windows whose packed width is
// well past 64 bits.
func TestFoldedMatchesFromScratch(t *testing.T) {
	cases := []struct {
		window  int
		bitsPer uint
		out     uint
	}{
		{4, 2, 8},    // packed width 8 = out (identity fold)
		{10, 2, 8},   // 20 bits
		{25, 2, 10},  // 50 bits
		{64, 2, 8},   // 128 bits: the ITTAGE longest bank
		{64, 2, 10},  // 128 bits folded to tag width
		{64, 2, 9},   // 128 bits folded to tag-1 width
		{37, 3, 11},  // non-power-of-two everything
		{5, 13, 7},   // item wider than out
		{100, 1, 13}, // long single-bit history
		// The geometries NewFolded reduces differently: an item narrower
		// than, as wide as and wider than the fold (one round and several),
		// a zero outgoing rotation, and the full 64-bit fold, whose right
		// shifts by out clear the word.
		{7, 3, 5},   // bitsPer < out, rot 21%5 = 1
		{6, 8, 8},   // bitsPer == out, rot 0
		{9, 10, 10}, // bitsPer == out, rot 90%10 = 0
		{9, 40, 12}, // bitsPer > out, two fold rounds per item
		{3, 64, 7},  // whole-word items, 64 bits into 7
		{12, 3, 9},  // rot 36%9 = 0 with a nonzero per-push rotation
		{64, 2, 64}, // out 64: rot 128%64 = 0
		{40, 3, 64}, // out 64: rot 120%64 = 56
		{10, 7, 64}, // out 64: rot 70%64 = 6
		{2, 64, 64}, // out 64, bitsPer 64: the register is the window XOR
	}
	for _, c := range cases {
		f := NewFolded(c.window, c.bitsPer, c.out)
		window := make([]uint64, c.window) // newest first, zero warm-up
		rng := uint64(0xDEADBEEF)
		for push := 0; push < 500; push++ {
			rng = Mix64(rng)
			item := rng & Mask(c.bitsPer)
			outgoing := window[c.window-1]
			copy(window[1:], window[:c.window-1])
			window[0] = item
			f.Update(item, outgoing)
			want := refFoldWindow(window, c.bitsPer, c.out)
			if got := f.Value(); got != want {
				t.Fatalf("window=%d bitsPer=%d out=%d push %d: incremental %x, from-scratch %x",
					c.window, c.bitsPer, c.out, push, got, want)
			}
			wordsWant := FoldWords(packWindow(window, c.bitsPer), uint(c.window)*c.bitsPer, c.out)
			if wordsWant != want {
				t.Fatalf("FoldWords disagrees with bit reference: %x vs %x", wordsWant, want)
			}
		}
	}
}

func TestFoldedUpdateTruncatesWideItems(t *testing.T) {
	f := NewFolded(4, 2, 8)
	g := NewFolded(4, 2, 8)
	f.Update(0xFFFF_FFF3, 0xFFF1)
	g.Update(0x3, 0x1)
	if f.Value() != g.Value() {
		t.Fatalf("items not truncated to bitsPer: %x vs %x", f.Value(), g.Value())
	}
}

func TestFoldedSetReset(t *testing.T) {
	f := NewFolded(8, 2, 6)
	f.Update(3, 0)
	if f.Value() == 0 {
		t.Fatal("update had no effect")
	}
	f.Reset()
	if f.Value() != 0 {
		t.Fatal("reset did not clear")
	}
	f.Set(0xFFFF)
	if f.Value() != 0x3F {
		t.Fatalf("Set must mask to out bits: %x", f.Value())
	}
	if f.Out() != 6 {
		t.Fatalf("Out = %d", f.Out())
	}
}

func TestNewFoldedPanics(t *testing.T) {
	for _, c := range []struct {
		window  int
		bitsPer uint
		out     uint
	}{{0, 2, 8}, {4, 0, 8}, {4, 65, 8}, {4, 2, 0}, {4, 2, 65}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewFolded(%d,%d,%d) did not panic", c.window, c.bitsPer, c.out)
				}
			}()
			NewFolded(c.window, c.bitsPer, c.out)
		}()
	}
}
