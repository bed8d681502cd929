// Package twolevel implements the two-level adaptive indirect-branch
// predictors evaluated in Section 5 of the paper: GAp (Driesen & Hölzle),
// the Target Cache (Chang et al.) and the Dual-path hybrid. All share a
// Pattern History Table whose entries hold a full target, the 2-bit
// replacement-hysteresis counter, a valid bit and (for the tagged variants
// used inside the Cascade predictor) a tag with true-LRU replacement.
package twolevel

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/counter"
)

// PHTEntry is one target-holding entry.
type PHTEntry struct {
	valid  bool
	tag    uint64
	target uint64
	hyst   counter.Hysteresis
	lru    uint64
	u      uint8 // usefulness, 0..phtUMax; maintained only in useful mode
}

// phtUMax caps the 2-bit per-entry usefulness counter of the u-bit tables.
const phtUMax = 3

// Target returns the stored target; meaningful only when the entry is valid.
func (e *PHTEntry) Target() uint64 { return e.target }

// Valid reports whether the entry holds a target.
func (e *PHTEntry) Valid() bool { return e.valid }

// PHT is a pattern history table of targets, optionally tagged and
// set-associative with true-LRU replacement (the organisation the Cascade
// predictor requires).
type PHT struct {
	sets   [][]PHTEntry
	assoc  int
	tagged bool
	clock  uint64
	bits   uint // log2(len(sets)): the index bits the table consumes

	// useful mode (the ITTAGE-style u-bit management grafted onto the 1998
	// tagged cascade): entries carry a usefulness counter, eviction only
	// claims ways whose counter has decayed to zero, and the counters halve
	// every resetPeriod updates.
	useful      bool
	resetPeriod uint64

	// maxTag bounds the tags Walk loads: the widest tag the table's owner
	// makes. A bare table takes caller-chosen tags of any width.
	maxTag uint64
}

// NewPHT builds a table with the given total number of entries and
// associativity. tagged selects tag-matching lookup; tagless tables must be
// direct mapped, as in the paper's tagless designs. Panics if entries is not
// a positive power of two, assoc does not divide entries, or a tagless table
// is not direct mapped.
func NewPHT(entries, assoc int, tagged bool) *PHT {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic(fmt.Sprintf("twolevel: entries must be a positive power of two, got %d", entries))
	}
	if assoc <= 0 || entries%assoc != 0 {
		panic(fmt.Sprintf("twolevel: associativity %d does not divide %d entries", assoc, entries))
	}
	if !tagged && assoc != 1 {
		panic("twolevel: tagless tables must be direct mapped")
	}
	nsets := entries / assoc
	sets := make([][]PHTEntry, nsets)
	backing := make([]PHTEntry, entries)
	for i := range sets {
		sets[i], backing = backing[:assoc], backing[assoc:]
	}
	return &PHT{sets: sets, assoc: assoc, tagged: tagged, bits: uint(bits.TrailingZeros(uint(nsets))), maxTag: math.MaxUint64}
}

// NewPHTUseful builds a tagged table whose replacement is governed by
// per-entry usefulness counters: a way is only evictable once its counter
// reaches zero, a displaced-but-useful set decays instead of allocating,
// and every resetPeriod updates the counters halve (the graceful reset).
// Panics under the same geometry rules as NewPHT, or if the table is not
// tagged (tagless tables have no victim choice to manage) or resetPeriod
// is zero.
func NewPHTUseful(entries, assoc int, resetPeriod uint64) *PHT {
	if resetPeriod == 0 {
		panic("twolevel: useful-mode reset period must be positive")
	}
	t := NewPHT(entries, assoc, true)
	t.useful = true
	t.resetPeriod = resetPeriod
	return t
}

// Sets returns the number of sets (the index space of the table).
func (t *PHT) Sets() int { return len(t.sets) }

// Entries returns the total entry count.
func (t *PHT) Entries() int { return len(t.sets) * t.assoc }

// IndexBits returns how many index bits the table consumes.
func (t *PHT) IndexBits() uint { return t.bits }

// Lookup returns the entry for (index, tag): in a tagless table, the
// direct-mapped slot; in a tagged table, the way whose tag matches, or nil
// on a tag miss. Lookup does not modify LRU state; Touch does.
func (t *PHT) Lookup(index, tag uint64) *PHTEntry {
	set := t.sets[index&uint64(len(t.sets)-1)]
	if !t.tagged {
		e := &set[0]
		if e.valid {
			return e
		}
		return nil
	}
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

// Update trains the entry for (index, tag) with the actual target:
// a hit on the stored target strengthens its hysteresis; a miss weakens it
// and replaces the target after two consecutive misses. Missing entries are
// allocated, displacing the LRU way in tagged tables. allocate=false
// suppresses allocation (used by the Cascade filter protocol).
func (t *PHT) Update(index, tag, target uint64, allocate bool) {
	t.clock++
	setIdx := index & uint64(len(t.sets)-1)
	set := t.sets[setIdx]
	if t.useful {
		t.updateUseful(set, tag, target, allocate)
		return
	}
	if !t.tagged {
		e := &set[0]
		if !e.valid {
			if allocate {
				*e = PHTEntry{valid: true, target: target, hyst: counter.NewHysteresis()}
			}
			return
		}
		train(e, target)
		return
	}
	var victim *PHTEntry
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = t.clock
			train(&set[i], target)
			return
		}
		if victim == nil || !set[i].valid || (victim.valid && set[i].lru < victim.lru) {
			if !set[i].valid || victim == nil || victim.valid {
				victim = &set[i]
			}
		}
	}
	if !allocate {
		return
	}
	*victim = PHTEntry{valid: true, tag: tag, target: target, hyst: counter.NewHysteresis(), lru: t.clock}
}

// Touch refreshes the LRU stamp of a tag-matching entry after a lookup hit.
func (t *PHT) Touch(index, tag uint64) {
	if !t.tagged {
		return
	}
	t.clock++
	set := t.sets[index&uint64(len(t.sets)-1)]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = t.clock
			return
		}
	}
}

// updateUseful is the u-bit train/replace discipline. On a tag hit the
// usefulness follows whether the resident target was right for this branch
// before hysteresis training adjusts it; on a miss, eviction may only claim
// an invalid way or the least recent way whose usefulness is zero — when
// every way is defended the whole set decays by one instead, so a stream of
// conflicting branches ages resident entries out gradually rather than
// thrashing them. The clock doubles as the graceful-reset timer.
func (t *PHT) updateUseful(set []PHTEntry, tag, target uint64, allocate bool) {
	if t.resetPeriod > 0 && t.clock%t.resetPeriod == 0 {
		t.halveUseful()
	}
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			e := &set[i]
			e.lru = t.clock
			if e.target == target {
				if e.u < phtUMax {
					e.u++
				}
			} else if e.u > 0 {
				e.u--
			}
			train(e, target)
			return
		}
	}
	var victim *PHTEntry
	for i := range set {
		e := &set[i]
		if !e.valid {
			victim = e
			break
		}
		if e.u == 0 && (victim == nil || e.lru < victim.lru) {
			victim = e
		}
	}
	if !allocate {
		return
	}
	if victim == nil {
		for i := range set {
			if set[i].u > 0 {
				set[i].u--
			}
		}
		return
	}
	*victim = PHTEntry{valid: true, tag: tag, target: target, hyst: counter.NewHysteresis(), lru: t.clock}
}

// halveUseful ages every usefulness counter, forgetting stale protection
// without wiping the working set.
func (t *PHT) halveUseful() {
	for _, set := range t.sets {
		for i := range set {
			set[i].u >>= 1
		}
	}
}

func train(e *PHTEntry, target uint64) {
	if e.target == target {
		e.hyst.OnHit()
		return
	}
	if e.hyst.OnMiss() {
		e.target = target
	}
}

// Reset clears the table to power-up state.
func (t *PHT) Reset() {
	for _, set := range t.sets {
		for i := range set {
			set[i] = PHTEntry{}
		}
	}
	t.clock = 0
}
