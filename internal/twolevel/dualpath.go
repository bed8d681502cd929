package twolevel

import (
	"fmt"

	"repro/internal/history"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// DualPathConfig parameterizes the Dual-path hybrid predictor of Driesen &
// Hölzle as evaluated in Section 5: two GAp components with a short and a
// long path length, arbitrated by a table of 2-bit selection counters
// indexed by branch address.
type DualPathConfig struct {
	Name      string
	Short     GApConfig
	Long      GApConfig
	Selectors int // power of two
}

// DualPath is the Dpath predictor.
type DualPath struct {
	cfg       DualPathConfig
	short     *GAp
	long      *GAp
	selectors []uint8 // 2-bit tournament counters; >=2 selects the long component
	tagged    bool    // either component is tagged, so a branch needs its tag
	pending   struct {
		selIdx            uint64
		shortTgt, longTgt uint64
		shortOK, longOK   bool
		chosenLong        bool
	}
}

// NewDualPath builds a Dual-path hybrid. Panics if the configuration is
// invalid (see NewGAp for the components), or if the two components record
// different history streams.
func NewDualPath(cfg DualPathConfig) *DualPath {
	if cfg.Selectors <= 0 || cfg.Selectors&(cfg.Selectors-1) != 0 {
		panic(fmt.Sprintf("twolevel: selector count must be a positive power of two, got %d", cfg.Selectors))
	}
	if cfg.Short.HistoryStream != cfg.Long.HistoryStream {
		panic(fmt.Sprintf("twolevel: dual-path components record different streams (%v, %v)", cfg.Short.HistoryStream, cfg.Long.HistoryStream))
	}
	sel := make([]uint8, cfg.Selectors)
	for i := range sel {
		sel[i] = 2 // weakly prefer the long-path component at power-up
	}
	return &DualPath{
		cfg:       cfg,
		short:     NewGAp(cfg.Short),
		long:      NewGAp(cfg.Long),
		selectors: sel,
		tagged:    cfg.Short.Tagged || cfg.Long.Tagged,
	}
}

// Name implements predictor.IndirectPredictor.
func (d *DualPath) Name() string {
	if d.cfg.Name != "" {
		return d.cfg.Name
	}
	return "Dpath"
}

// Entries implements predictor.Sized. The selection counters hold no
// targets, so only the component PHT entries count toward the budget.
func (d *DualPath) Entries() int { return d.short.Entries() + d.long.Entries() }

// Predict implements predictor.IndirectPredictor. Both components tag a
// branch alike, so its tag is derived once, and only if a component is
// tagged.
func (d *DualPath) Predict(pc uint64) (uint64, bool) {
	var tag uint64
	if d.tagged {
		tag = gapTag(pc)
	}
	sTgt, sOK := d.short.predict(pc, tag)
	lTgt, lOK := d.long.predict(pc, tag)
	selIdx := (pc >> 2) & uint64(len(d.selectors)-1)
	chooseLong := d.selectors[selIdx] >= 2

	p := &d.pending
	p.selIdx, p.shortTgt, p.longTgt, p.shortOK, p.longOK = selIdx, sTgt, lTgt, sOK, lOK

	// Prefer the chosen component; fall back to the other on a table miss
	// so a cold component does not force a no-prediction.
	switch {
	case chooseLong && lOK:
		p.chosenLong = true
		return lTgt, true
	case chooseLong && sOK:
		p.chosenLong = false
		return sTgt, true
	case !chooseLong && sOK:
		p.chosenLong = false
		return sTgt, true
	case lOK:
		p.chosenLong = true
		return lTgt, true
	}
	p.chosenLong = chooseLong
	return 0, false
}

// Update implements predictor.IndirectPredictor. Both components train on
// every resolved branch; the selection counter moves toward the component
// that was correct when exactly one of them was.
func (d *DualPath) Update(pc, target uint64) { d.UpdateAlloc(pc, target, true) }

// UpdateAlloc resolves the pending prediction like Update but lets the
// caller suppress allocation of new component entries, as the Cascade
// leaky-filter protocol requires.
func (d *DualPath) UpdateAlloc(pc, target uint64, allocate bool) {
	p := &d.pending
	shortRight := p.shortOK && p.shortTgt == target
	longRight := p.longOK && p.longTgt == target
	if shortRight != longRight {
		sel := &d.selectors[p.selIdx]
		if longRight {
			if *sel < 3 {
				*sel++
			}
		} else if *sel > 0 {
			*sel--
		}
	}
	d.short.UpdateAlloc(pc, target, allocate)
	d.long.UpdateAlloc(pc, target, allocate)
}

// Hit reports whether either component produced a prediction for the most
// recent Predict call — i.e. whether the tagged main predictor of a Cascade
// hierarchy answered.
func (d *DualPath) Hit() bool { return d.pending.shortOK || d.pending.longOK }

// Observe implements predictor.IndirectPredictor.
func (d *DualPath) Observe(r trace.Record) {
	d.short.Observe(r)
	d.long.Observe(r)
}

// Push shifts a resolved target into both components' history registers:
// the Observe step for a record on the components' stream, which the block
// paths here and in package cascade know from walking that stream's lane.
//
//ppm:hotpath per-record history-register shift
func (d *DualPath) Push(target uint64) {
	d.short.hist.Push(target)
	d.long.hist.Push(target)
}

// ProcessBlock implements the engine's batch fast path. Both components
// record the same stream (NewDualPath checks), so the entire predictor —
// lookup, training, selector and history — is driven by that stream's
// index lane alone.
//
//ppm:hotpath whole-block Dual-path replay over its stream's index lane
func (d *DualPath) ProcessBlock(b *trace.Block, preds []predictor.Prediction) {
	pcs, tgts, metas := b.PC, b.Target, b.Meta
	j := 0
	for _, k := range d.short.hist.Stream().Lane(b) {
		tgt := tgts[k]
		if metas[k]&trace.MetaMT != 0 {
			pc := pcs[k]
			target, ok := d.Predict(pc)
			preds[j] = predictor.Prediction{Target: target, Predicted: ok}
			j++
			d.Update(pc, tgt)
		}
		d.Push(tgt)
	}
}

// Reset implements predictor.Resetter.
func (d *DualPath) Reset() {
	d.short.Reset()
	d.long.Reset()
	for i := range d.selectors {
		d.selectors[i] = 2
	}
}

// PaperDualPath returns the exact Dpath configuration of Section 5: two
// tagless 1K-entry GAp components with 24-bit path history registers,
// reverse-interleaving indexing, 2-bit replacement counters, path lengths 1
// and 3 (all recorded bits low-order), and a 1K table of 2-bit selection
// counters.
func PaperDualPath() *DualPath {
	return NewDualPath(DualPathConfig{
		Name:      "Dpath",
		Selectors: 1024,
		Short: GApConfig{
			Name:          "Dpath-short",
			Entries:       1024,
			PHTs:          1,
			Assoc:         1,
			PathLength:    1,
			BitsPerTarget: 24,
			HistoryBits:   24,
			HistoryStream: history.MTIndirectBranches,
			Indexing:      ReverseInterleave,
		},
		Long: GApConfig{
			Name:          "Dpath-long",
			Entries:       1024,
			PHTs:          1,
			Assoc:         1,
			PathLength:    3,
			BitsPerTarget: 8,
			HistoryBits:   24,
			HistoryStream: history.MTIndirectBranches,
			Indexing:      ReverseInterleave,
		},
	})
}

var (
	_ predictor.IndirectPredictor = (*DualPath)(nil)
	_ predictor.Sized             = (*DualPath)(nil)
	_ predictor.Resetter          = (*DualPath)(nil)
	_ predictor.Costed            = (*DualPath)(nil)
)

// Bits implements predictor.Costed.
func (d *DualPath) Bits() int {
	return d.short.Bits() + d.long.Bits() + 2*len(d.selectors)
}
