package predictor

import (
	"repro/internal/counter"
	"repro/internal/trace"
)

// BIU models the Branch Identification Unit of Section 4: a structure
// indexed by branch address that identifies indirect branches, records the
// compiler/linker ST/MT annotation bit, and (for the hybrid PPM predictor)
// holds the per-branch 2-bit correlation selection counter.
//
// The paper assumes an infinite BIU; Limit=0 reproduces that. A positive
// Limit bounds the number of live entries with FIFO eviction, enabling the
// finite-BIU sensitivity study the paper lists as future work.
//
// The entries live inline in an open-addressed table keyed by PC: a
// power-of-two slot array probed linearly from each PC's home slot (the top
// bits of a multiplicative hash). The table is kept at most half full, so a
// probe ends at the PC's slot or at an empty one within a few steps, and it
// doubles when an insert would pass that load — its size follows the
// population, which a bounded BIU caps at its limit. Deletion shifts the
// rest of the probe run back instead of leaving tombstones, so lookups
// never slow down as a bounded BIU churns.
type BIU struct {
	mode  counter.SelectionMode
	limit int
	slots []biuSlot
	// shift is 64 - log2(len(slots)): a PC's home slot is the top bits of
	// pc*fibMul.
	shift uint
	// order is the insertion order of live entries: the FIFO eviction queue
	// when bounded, and the deterministic serialization order always (table
	// order must never reach a snapshot).
	order []uint64

	evictions uint64
}

// BIUEntry is the per-branch state held by the BIU. A *BIUEntry points into
// the table: it stays valid only until the next call that can insert or
// remove an entry (Ensure, Observe, ObserveIndirect, Reset, Walk when loading).
type BIUEntry struct {
	// MT records the multi-target annotation bit.
	MT bool
	// Sel is the correlation selection counter (Figure 5).
	Sel counter.Selection
}

// biuSlot is one table slot; used distinguishes an empty slot from the
// entry of PC 0.
type biuSlot struct {
	pc   uint64
	used bool
	BIUEntry
}

// fibMul is 2^64 divided by the golden ratio: multiplying by it spreads
// nearby PCs across the high bits the home slot is taken from.
const fibMul = 0x9E3779B97F4A7C15

// minBIUSlots is the table size a BIU starts at.
const minBIUSlots = 8

// NewBIU constructs a BIU whose selection counters follow the given Figure 5
// state machine. limit bounds the number of entries (0 = unbounded).
func NewBIU(mode counter.SelectionMode, limit int) *BIU {
	b := &BIU{mode: mode, limit: limit}
	b.resize(minBIUSlots)
	return b
}

// find returns pc's slot, or the empty slot that ends pc's probe run — where
// an insert of pc belongs. An empty slot holds PC 0, so the single compare
// stops on both; callers tell them apart by used.
//
//ppm:hotpath per-branch BIU probe on the lookup path
func (b *BIU) find(pc uint64) *biuSlot {
	s := b.slots
	if len(s) == 0 {
		return nil // dead guard: the table always has slots; drops the bounds checks
	}
	m := uint64(len(s) - 1)
	i := pc * fibMul >> (b.shift & 63)
	for s[i&m].pc != pc && s[i&m].used {
		i++
	}
	return &s[i&m]
}

// Lookup returns the entry for pc, or nil if the branch has not been seen.
//
//ppm:hotpath per-branch BIU probe on the lookup path
func (b *BIU) Lookup(pc uint64) *BIUEntry {
	if s := b.find(pc); s.used {
		return &s.BIUEntry
	}
	return nil
}

// Ensure returns the entry for pc, allocating one (initialized to
// Strongly-PIB, per the paper) on first use. The inserting branch runs
// once per static branch — first touch, like a hardware table fill — so it
// is cold by construction; steady state ends at the probe's hit.
//
//ppm:hotpath per-branch BIU probe on the lookup path
func (b *BIU) Ensure(pc uint64) *BIUEntry {
	if s := b.find(pc); s.used {
		return &s.BIUEntry
	}
	return b.ensureSlow(pc) //lint:coldpath — first touch of a new static branch
}

// ensureSlow inserts the entry for an unseen branch, first applying the
// FIFO eviction of a full bounded BIU (the new PC cannot be the victim, so
// evicting before inserting leaves the same population as the reverse) and
// growing the table when the insert would pass half full.
//
//ppm:coldpath first-touch insertion and eviction run once per static branch
//go:noinline
func (b *BIU) ensureSlow(pc uint64) *BIUEntry {
	if b.limit > 0 && len(b.order) >= b.limit {
		victim := b.order[0]
		b.order = b.order[1:]
		b.remove(victim)
		b.evictions++
	}
	if 2*(len(b.order)+1) > len(b.slots) {
		b.resize(2 * len(b.slots))
	}
	s := b.find(pc)
	*s = biuSlot{pc: pc, used: true, BIUEntry: BIUEntry{Sel: counter.NewSelection(b.mode)}}
	b.order = append(b.order, pc)
	return &s.BIUEntry
}

// resize moves every entry into a fresh table of n slots (a power of two
// above twice the population).
//
//ppm:coldpath table growth runs a logarithmic number of times per population
func (b *BIU) resize(n int) {
	old := b.slots
	b.slots = make([]biuSlot, n)
	b.shift = 64
	for m := n; m > 1; m >>= 1 {
		b.shift--
	}
	for i := range old {
		if old[i].used {
			*b.find(old[i].pc) = old[i]
		}
	}
}

// remove deletes pc's entry, which must be live, and shifts later members
// of its probe run back over the hole: an entry moves when the hole lies on
// its probe path (between its home slot and its slot), so every run stays
// unbroken without tombstones.
func (b *BIU) remove(pc uint64) {
	s := b.slots
	m := uint64(len(s) - 1)
	hole := pc * fibMul >> (b.shift & 63) & m
	for s[hole].pc != pc || !s[hole].used {
		hole = (hole + 1) & m
	}
	for j := (hole + 1) & m; s[j].used; j = (j + 1) & m {
		home := s[j].pc * fibMul >> (b.shift & 63)
		if (j-home)&m >= (j-hole)&m {
			s[hole] = s[j]
			hole = j
		}
	}
	s[hole] = biuSlot{}
}

// Observe records the annotation bit carried by a committed branch record.
//
//ppm:hotpath per-branch BIU probe on the lookup path
func (b *BIU) Observe(r trace.Record) {
	if !r.Class.Indirect() {
		return
	}
	b.ObserveIndirect(r.PC, r.MT)
}

// ObserveIndirect is the batch-path form of Observe: the caller has already
// established from a block's meta lane that the record is an indirect
// branch, so the class check and the trace.Record assembly are hoisted out.
// Equivalent to Observe on an indirect record with the given pc and MT bit.
//
//ppm:hotpath per-branch BIU probe on the lookup path
func (b *BIU) ObserveIndirect(pc uint64, mt bool) {
	e := b.Ensure(pc)
	if mt {
		e.MT = true
	}
}

// Len returns the number of live entries.
func (b *BIU) Len() int { return len(b.order) }

// Evictions returns how many entries a bounded BIU has displaced.
func (b *BIU) Evictions() uint64 { return b.evictions }

// Reset clears the BIU to power-up state, keeping the table's storage.
func (b *BIU) Reset() {
	clear(b.slots)
	b.order = b.order[:0]
	b.evictions = 0
}
