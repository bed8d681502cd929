package check

import (
	"testing"

	"repro/internal/hashing"
	"repro/internal/history"
	"repro/internal/trace"
	"repro/internal/workload"
)

// quickSeeds and quickEvents bound the randomized differential pass run on
// every `go test`; cmd/ppmcheck runs the open-ended version.
const (
	quickSeeds  = 4
	quickEvents = 600
)

// TestCorpusReplay replays every checked-in seed: each one pins a bug the
// harness found, so a failure here is a regression of a fixed bug.
func TestCorpusReplay(t *testing.T) {
	seeds, err := LoadSeeds("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) == 0 {
		t.Fatal("corpus is empty — testdata/corpus seeds missing")
	}
	for _, e := range seeds {
		e := e
		t.Run(e.Seed.Name, func(t *testing.T) {
			if err := ReplaySeed(e); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestReferenceRegistryCoversAllFamilies pins the acceptance criterion that
// the harness differentially covers every Figure 6/7 label.
func TestReferenceRegistryCoversAllFamilies(t *testing.T) {
	for _, fam := range Families() {
		ref, ok := NewReference(fam)
		if !ok {
			t.Errorf("no reference for family %q", fam)
			continue
		}
		if ref.Name() != fam {
			t.Errorf("reference for %q names itself %q", fam, ref.Name())
		}
	}
	if _, ok := NewReference("no-such-predictor"); ok {
		t.Error("NewReference accepted an unknown label")
	}
}

// --- hash-function differentials ------------------------------------------

func TestRefMaskSelectFoldAgree(t *testing.T) {
	rng := workload.NewRNG(11)
	for i := 0; i < 2000; i++ {
		v := rng.Uint64()
		in := uint(rng.Intn(65))
		out := uint(rng.Intn(33))
		if got, want := hashing.Mask(in), refMask(in); got != want {
			t.Fatalf("Mask(%d) = %#x, ref %#x", in, got, want)
		}
		if got, want := hashing.Select(v, in), refSelect(v, in); got != want {
			t.Fatalf("Select(%#x,%d) = %#x, ref %#x", v, in, got, want)
		}
		if got, want := hashing.Fold(v, in, out), refFold(v, in, out); got != want {
			t.Fatalf("Fold(%#x,%d,%d) = %#x, ref %#x", v, in, out, got, want)
		}
	}
	// The widths where shift-count reduction and the n == 64 mask bit meet.
	for _, v := range []uint64{0, ^uint64(0), 0x8000000000000001, rng.Uint64()} {
		for _, in := range []uint{0, 1, 63, 64} {
			if got, want := hashing.Mask(in), refMask(in); got != want {
				t.Fatalf("Mask(%d) = %#x, ref %#x", in, got, want)
			}
			if got, want := hashing.Select(v, in), refSelect(v, in); got != want {
				t.Fatalf("Select(%#x,%d) = %#x, ref %#x", v, in, got, want)
			}
			for _, out := range []uint{0, 1, 63, 64} {
				if got, want := hashing.Fold(v, in, out), refFold(v, in, out); got != want {
					t.Fatalf("Fold(%#x,%d,%d) = %#x, ref %#x", v, in, out, got, want)
				}
			}
		}
	}
}

func TestRefGShareAgrees(t *testing.T) {
	rng := workload.NewRNG(12)
	for i := 0; i < 2000; i++ {
		h, pc := rng.Uint64(), rng.Uint64()
		n := uint(rng.Intn(33))
		if got, want := hashing.GShare(h, pc, n), refGShare(h, pc, n); got != want {
			t.Fatalf("GShare(%#x,%#x,%d) = %#x, ref %#x", h, pc, n, got, want)
		}
	}
}

func TestRefSFSXAgrees(t *testing.T) {
	rng := workload.NewRNG(13)
	for i := 0; i < 500; i++ {
		// Lengths straddling 64 exercise the rotation wrap — the long-path
		// regime where the pre-fix shift silently dropped contributions.
		n := 1 + rng.Intn(90)
		ts := make([]uint64, n)
		for j := range ts {
			ts[j] = rng.Uint64() &^ 3
		}
		selBits := uint(1 + rng.Intn(32))
		foldBits := uint(1 + rng.Intn(int(selBits)))
		if got, want := hashing.SFSX(ts, selBits, foldBits), refSFSX(ts, selBits, foldBits); got != want {
			t.Fatalf("SFSX(len=%d,sel=%d,fold=%d) = %#x, ref %#x", n, selBits, foldBits, got, want)
		}
	}
}

func TestRefSFSXSAgree(t *testing.T) {
	rng := workload.NewRNG(14)
	for i := 0; i < 1000; i++ {
		n := rng.Intn(14)
		ts := make([]uint64, n)
		for j := range ts {
			ts[j] = rng.Uint64() &^ 3
		}
		order := uint(rng.Intn(13))
		selBits := uint(1 + rng.Intn(32))
		foldBits := uint(1 + rng.Intn(int(selBits)))
		if got, want := hashing.SFSXS(ts, selBits, foldBits, order), refSFSXS(ts, selBits, foldBits, order); got != want {
			t.Fatalf("SFSXS(len=%d,sel=%d,fold=%d,order=%d) = %#x, ref %#x", n, selBits, foldBits, order, got, want)
		}
		if got, want := hashing.SFSXSLow(ts, selBits, foldBits, order), refSFSXSLow(ts, selBits, foldBits, order); got != want {
			t.Fatalf("SFSXSLow(len=%d,sel=%d,fold=%d,order=%d) = %#x, ref %#x", n, selBits, foldBits, order, got, want)
		}
	}
}

// TestSFSXSNestSweep holds the fold-once, nest-per-lookup derivation PPM
// uses — each target folded by hashing.Fold as it is pushed, the folds
// nested by hashing.SFSXSNest — in both orientations to the bit-vector
// references over every PPM geometry the configuration allows (selBits
// 1-32, foldBits 1-selBits, maxOrder 1-20) and every recorded path length up
// to maxOrder. Targets carry bits above bit 33, which the fold must drop;
// folds past the recorded path are zero, as a zeroed register's are, and
// folds past the order hold junk the nest must not read.
func TestSFSXSNestSweep(t *testing.T) {
	const maxOrder = 20
	rng := workload.NewRNG(17)
	folds := make([]uint64, maxOrder+1)
	dst := make([]uint64, maxOrder)
	want := make([][2]uint64, maxOrder+1)
	for selBits := uint(1); selBits <= 32; selBits++ {
		for foldBits := uint(1); foldBits <= selBits; foldBits++ {
			path := make([]uint64, maxOrder)
			for i := range path {
				path[i] = rng.Uint64() | 1<<34 | 1<<63
			}
			for n := 0; n <= maxOrder; n++ {
				for o := uint(1); o <= maxOrder; o++ {
					want[o] = [2]uint64{
						refSFSXS(path[:n], selBits, foldBits, o),
						refSFSXSLow(path[:n], selBits, foldBits, o),
					}
				}
				for order := max(n, 1); order <= maxOrder; order++ {
					for i := range folds {
						switch {
						case i < n:
							folds[i] = hashing.Fold(path[i]>>2, selBits, foldBits)
						case i < order:
							folds[i] = 0
						default:
							folds[i] = rng.Uint64()
						}
					}
					for side, low := range []bool{false, true} {
						hashing.SFSXSNest(dst[:order], folds, foldBits, low)
						for o := 1; o <= order; o++ {
							if dst[o-1] != want[o][side] {
								t.Fatalf("SFSXSNest(sel=%d fold=%d maxOrder=%d len=%d low=%t)[%d] = %#x, ref %#x",
									selBits, foldBits, order, n, low, o, dst[o-1], want[o][side])
							}
						}
					}
				}
			}
		}
	}
}

// TestRefReverseInterleaveAgrees holds the branch-free Morton form of the
// Dual-path index to the bit-by-bit reference for every index width n and
// every history width in [1, 64], over random registers and addresses
// whose bits above each width must not leak in.
func TestRefReverseInterleaveAgrees(t *testing.T) {
	rng := workload.NewRNG(15)
	for n := uint(1); n <= 64; n++ {
		for historyBits := uint(1); historyBits <= 64; historyBits++ {
			for i := 0; i < 4; i++ {
				h, pc := rng.Uint64(), rng.Uint64()
				if got, want := hashing.ReverseInterleave(h, historyBits, pc, n), refReverseInterleave(h, historyBits, pc, n); got != want {
					t.Fatalf("ReverseInterleave(%#x,%d,%#x,%d) = %#x, ref %#x", h, historyBits, pc, n, got, want)
				}
			}
		}
	}
}

func TestRefMix64Agrees(t *testing.T) {
	rng := workload.NewRNG(16)
	for i := 0; i < 1000; i++ {
		v := rng.Uint64()
		if got, want := hashing.Mix64(v), refMix64(v); got != want {
			t.Fatalf("Mix64(%#x) = %#x, ref %#x", v, got, want)
		}
	}
}

// --- history differential ---------------------------------------------------

// TestRefHistoryAgreesWithPHR feeds identical random record streams to the
// optimized ring-buffer PHR and the replay-from-scratch refHistory and
// compares both views (recent targets and packed register) after every
// observation, for every stream type and several geometry combinations.
func TestRefHistoryAgreesWithPHR(t *testing.T) {
	streams := []history.Stream{
		history.AllBranches, history.IndirectBranches,
		history.MTIndirectBranches,
	}
	geoms := []struct {
		depth      int
		bitsPer    uint
		packedBits uint
	}{
		{10, 10, 0},
		{5, 2, 10},
		{3, 8, 24},
		{1, 24, 24},
		{6, 4, 24},
		{4, 70, 64},  // bitsPer >= 64 selects the whole target
		{64, 2, 128}, // multi-word: the ITTAGE geometric-history geometry
		{40, 3, 120}, // multi-word, non-power-of-two item width
		{70, 2, 130}, // multi-word with a partial top word
	}
	recs := RandomRecords(77, 400)
	for _, stream := range streams {
		for _, g := range geoms {
			phr := history.NewWide(stream, g.depth, g.bitsPer, g.packedBits)
			ref := newRefHistory(stream, g.depth, g.bitsPer, g.packedBits)
			for i, r := range recs {
				phr.Observe(r)
				ref.observe(r)
				if got, want := phr.Packed(), ref.packed(); got != want {
					t.Fatalf("%v %+v: packed diverged at record %d: %#x vs ref %#x", stream, g, i, got, want)
				}
				for _, out := range []uint{1, 8, 10, 24, 64} {
					in := g.packedBits
					if got, want := phr.FoldPacked(in, out), ref.foldPacked(in, out); got != want {
						t.Fatalf("%v %+v: FoldPacked(%d,%d) diverged at record %d: %#x vs ref %#x", stream, g, in, out, i, got, want)
					}
					if got, want := phr.FoldPacked(in/2, out), ref.foldPacked(in/2, out); in > 1 && got != want {
						t.Fatalf("%v %+v: FoldPacked(%d,%d) diverged at record %d: %#x vs ref %#x", stream, g, in/2, out, i, got, want)
					}
				}
				for n := 0; n <= g.depth+1; n++ {
					got := phr.Recent(nil, n)
					want := ref.recent(n)
					if len(got) != len(want) {
						t.Fatalf("%v %+v: Recent(%d) lengths %d vs ref %d at record %d", stream, g, n, len(got), len(want), i)
					}
					for k := range got {
						if got[k] != want[k] {
							t.Fatalf("%v %+v: Recent(%d)[%d] = %#x vs ref %#x at record %d", stream, g, n, k, got[k], want[k], i)
						}
					}
				}
			}
		}
	}
}

// --- shrinker ----------------------------------------------------------------

func TestShrinkFindsMinimalSubsequence(t *testing.T) {
	// The failure fires iff the trace contains a record with PC 0xbad and a
	// later record with PC 0xworse; the 1-minimal failing trace is exactly
	// those two records in order.
	recs := RandomRecords(5, 200)
	recs[40].PC = 0xbad0
	recs[150].PC = 0x90bad
	fails := func(rs []trace.Record) bool {
		seen := false
		for _, r := range rs {
			if r.PC == 0xbad0 {
				seen = true
			}
			if r.PC == 0x90bad && seen {
				return true
			}
		}
		return false
	}
	min := Shrink(recs, fails)
	if len(min) != 2 {
		t.Fatalf("shrunk to %d records, want 2", len(min))
	}
	if min[0].PC != 0xbad0 || min[1].PC != 0x90bad {
		t.Fatalf("shrunk to wrong records: %v", min)
	}
	if !fails(min) {
		t.Fatal("shrunk trace no longer fails")
	}
}

func TestShrinkReturnsInputWhenNotFailing(t *testing.T) {
	recs := RandomRecords(6, 50)
	out := Shrink(recs, func([]trace.Record) bool { return false })
	if len(out) != len(recs) {
		t.Fatalf("non-failing input shrunk from %d to %d records", len(recs), len(out))
	}
}
