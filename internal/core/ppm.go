package core

import (
	"fmt"

	"repro/internal/counter"
	"repro/internal/hashing"
	"repro/internal/history"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// Mode selects which of the paper's three PPM variants a predictor runs as.
type Mode uint8

const (
	// PIBOnly is the PPM-PIB variant: a single PIB path history register,
	// one level of table access (no BIU selection).
	PIBOnly Mode = iota
	// Hybrid is PPM-hyb: two PHRs (PB and PIB) with dynamic per-branch
	// selection via normal-mode 2-bit counters in the BIU (Figure 4).
	Hybrid
	// HybridBiased is PPM-hyb-biased: like Hybrid but the selection
	// counters follow the PIB-biased state machine of Figure 5.
	HybridBiased
)

// String names the mode using the paper's labels.
func (m Mode) String() string {
	switch m {
	case PIBOnly:
		return "PPM-PIB"
	case Hybrid:
		return "PPM-hyb"
	case HybridBiased:
		return "PPM-hyb-biased"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// Config parameterizes a PPM predictor. The zero value is not valid; start
// from DefaultConfig or one of the Paper* constructors.
type Config struct {
	// Name overrides the mode-derived predictor name.
	Name string
	// Order is m: the number of Markov tables (orders 1..m) above the
	// single-entry order-0 component. The paper uses 10.
	Order int
	// TargetBits is the number of low-order bits selected from each
	// recorded target (10 in the paper).
	TargetBits uint
	// FoldBits is the folded width per target in the SFSXS hash (5).
	FoldBits uint
	// Mode selects the variant.
	Mode Mode
	// LowSelect switches SFSXS to the low-order-bit select alternative
	// mentioned in Section 4.
	LowSelect bool
	// BIULimit bounds the BIU entry count (0 = infinite, as the paper
	// assumes). Only meaningful for the hybrid modes.
	BIULimit int
	// Tagged enables the tagged-Markov-table extension the paper lists
	// as future work: entries carry a per-branch tag and only predict on
	// a tag match, trading capacity for collision immunity.
	Tagged bool
	// ConfidenceThreshold, when non-zero, implements the future-work
	// "confidence on the prediction of different Markov components":
	// a component only supplies the prediction if its entry's 2-bit
	// counter value is >= the threshold; otherwise lookup falls through
	// to the next lower order.
	ConfidenceThreshold uint8
}

// DefaultConfig returns the paper's order-10 configuration in the given
// mode: 10 Markov tables sized 2^1..2^10 (2046 entries) plus the order-0
// component, two 100-bit PHRs (10 targets x 10 low-order bits), SFSXS
// indexing with 5-bit folds.
func DefaultConfig(mode Mode) Config {
	return Config{
		Order:      10,
		TargetBits: 10,
		FoldBits:   5,
		Mode:       mode,
	}
}

func (c Config) validate() error {
	if c.Order < 1 || c.Order > 20 {
		return fmt.Errorf("core: order must be in [1,20], got %d", c.Order)
	}
	if c.TargetBits == 0 || c.TargetBits > 32 {
		return fmt.Errorf("core: target bits must be in [1,32], got %d", c.TargetBits)
	}
	if c.FoldBits == 0 || c.FoldBits > c.TargetBits {
		return fmt.Errorf("core: fold bits must be in [1,%d], got %d", c.TargetBits, c.FoldBits)
	}
	return nil
}

// ComponentStats records the distribution of accesses and misses across the
// Markov components, the Section 5 measurement showing that at least 98% of
// accesses land in the highest-order component. Index i covers order i;
// index Order+1 ("none") counts lookups where no component could predict.
type ComponentStats struct {
	Accesses []uint64 // [order+2]: orders 0..m, then none
	Misses   []uint64
}

func newComponentStats(order int) ComponentStats {
	return ComponentStats{
		Accesses: make([]uint64, order+2),
		Misses:   make([]uint64, order+2),
	}
}

// PPM is the paper's indirect-branch target predictor.
type PPM struct {
	cfg    Config
	tables []*MarkovTable // tables[j-1] has order j
	zero   markovEntry    // the order-0 component: most recent MT target
	pb     *history.PHR
	pib    *history.PHR
	// pbFolds and pibFolds hold the SFSXS fold of each target recorded in
	// pb and pib (foldRing). PPM-PIB never reads its PB history, so it
	// keeps no PB ring: pbFolds is nil.
	pbFolds  *foldRing
	pibFolds *foldRing
	biu      *predictor.BIU

	pending struct {
		pc      uint64
		indices []uint64
		tag     uint32
		chosen  int // order that supplied the prediction; -1 = none
		target  uint64
		ok      bool
		// sel is the BIU entry Predict chose the history with; it points
		// into the BIU's table, so it is used only until the record's
		// Observe and cleared whenever the table is rebuilt.
		sel *predictor.BIUEntry
	}

	stats ComponentStats
}

// New builds a PPM predictor from cfg. Panics on invalid configuration,
// which is a programming error for this repository's fixed experiment set.
func New(cfg Config) *PPM {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	tables := make([]*MarkovTable, cfg.Order)
	for j := 1; j <= cfg.Order; j++ {
		tables[j-1] = NewMarkovTable(uint(j), cfg.Tagged)
	}
	mode := counter.Normal
	if cfg.Mode == HybridBiased {
		mode = counter.PIBBiased
	}
	p := &PPM{
		cfg:      cfg,
		tables:   tables,
		pb:       history.New(history.AllBranches, cfg.Order, cfg.TargetBits, 0),
		pib:      history.New(history.IndirectBranches, cfg.Order, cfg.TargetBits, 0),
		pibFolds: new(foldRing),
		biu:      predictor.NewBIU(mode, cfg.BIULimit),
		stats:    newComponentStats(cfg.Order),
	}
	if cfg.Mode != PIBOnly {
		p.pbFolds = new(foldRing)
	}
	p.pending.indices = make([]uint64, cfg.Order)
	return p
}

// PaperHyb returns the PPM-hyb configuration of Section 5.
func PaperHyb() *PPM { return New(DefaultConfig(Hybrid)) }

// PaperPIB returns the PPM-PIB configuration (single PIB history, one level
// of table access).
func PaperPIB() *PPM { return New(DefaultConfig(PIBOnly)) }

// PaperHybBiased returns the PPM-hyb-biased configuration.
func PaperHybBiased() *PPM { return New(DefaultConfig(HybridBiased)) }

// Name implements predictor.IndirectPredictor.
func (p *PPM) Name() string {
	if p.cfg.Name != "" {
		return p.cfg.Name
	}
	return p.cfg.Mode.String()
}

// Config returns the predictor's configuration.
func (p *PPM) Config() Config { return p.cfg }

// Entries implements predictor.Sized: 2^1+...+2^m Markov entries plus the
// order-0 entry (2047 for the paper's order-10 budget).
func (p *PPM) Entries() int {
	n := 1 // order-0
	for _, t := range p.tables {
		n += t.Len()
	}
	return n
}

// Order returns m.
func (p *PPM) Order() int { return p.cfg.Order }

// BIU exposes the branch identification unit (e.g. for eviction stats).
func (p *PPM) BIU() *predictor.BIU { return p.biu }

// selectHistory returns the fold ring of the PHR the branch at pc should
// use, consulting the BIU selection counter in the hybrid modes.
func (p *PPM) selectHistory(pc uint64) (*foldRing, *predictor.BIUEntry) {
	if p.cfg.Mode == PIBOnly {
		return p.pibFolds, nil
	}
	e := p.biu.Ensure(pc)
	if e.Sel.Selected() == counter.PB {
		return p.pbFolds, e
	}
	return p.pibFolds, e
}

// Predict implements predictor.IndirectPredictor: all Markov components are
// accessed in parallel with their per-order SFSXS indices and the valid
// entry of the highest order supplies the target (Figure 3's buffer chain).
func (p *PPM) Predict(pc uint64) (uint64, bool) {
	folds, sel := p.selectHistory(pc)
	tag := uint32(hashing.Mix64(pc>>2) >> 48)

	pd := &p.pending
	pd.pc = pc
	pd.tag = tag
	pd.sel = sel
	pd.chosen = -1
	pd.ok = false
	pd.target = 0

	// The selected register's targets were folded as they were pushed; one
	// pass nests every order's SFSXS index (each inside the next).
	hashing.SFSXSNest(pd.indices, folds.window(), p.cfg.FoldBits, p.cfg.LowSelect)

	// indices and tables both hold Order entries, order j at j-1.
	for j := p.cfg.Order; j >= 1; j-- {
		idx := pd.indices[j-1]
		if e := p.tables[j-1].lookup(idx, tag); e != nil && e.hyst.Value() >= p.cfg.ConfidenceThreshold {
			pd.chosen = j
			pd.target = e.target
			pd.ok = true
			break
		}
	}
	if !pd.ok && p.zero.valid {
		pd.chosen = 0
		pd.target = p.zero.target
		pd.ok = true
	}
	// Accesses has Order+2 slots: orders 0 to Order, then no prediction.
	if pd.ok {
		p.stats.Accesses[pd.chosen]++
	} else {
		p.stats.Accesses[p.cfg.Order+1]++
	}
	return pd.target, pd.ok
}

// Update implements predictor.IndirectPredictor. The update-exclusion
// policy of Chen et al. is applied: only the component that supplied the
// prediction and every higher-order component are trained; lower orders are
// left untouched. The PHRs advance in Observe, after Update, so tables are
// trained against the history state used at prediction time.
func (p *PPM) Update(pc, target uint64) { p.UpdateAlloc(pc, target, true) }

// UpdateAlloc resolves the pending prediction like Update but lets a
// filtering front end (see FilteredPPM) suppress training of the Markov
// tables for branches it has decided to keep out of them; accounting and
// the correlation-selection counter still advance.
func (p *PPM) UpdateAlloc(_, target uint64, train bool) {
	pd := &p.pending
	correct := pd.ok && pd.target == target
	if !correct {
		// Misses has Order+2 slots, laid out like Accesses.
		if pd.ok {
			p.stats.Misses[pd.chosen]++
		} else {
			p.stats.Misses[p.cfg.Order+1]++
		}
	}

	if train {
		low := pd.chosen
		if low < 0 {
			low = 0 // nothing predicted: every component learns the branch
		}
		for j := p.cfg.Order; j >= 1 && j >= low; j-- {
			p.tables[j-1].train(pd.indices[j-1], pd.tag, target)
		}
		if low == 0 {
			trainZero(&p.zero, target)
		}
	}

	if pd.sel != nil {
		pd.sel.Sel.Update(correct)
	}
}

func trainZero(e *markovEntry, target uint64) {
	if !e.valid {
		*e = markovEntry{valid: true, target: target, hyst: counter.NewHysteresis()}
		return
	}
	if e.target == target {
		e.hyst.OnHit()
		return
	}
	if e.hyst.OnMiss() {
		e.target = target
	}
}

// Observe implements predictor.IndirectPredictor: the actual target of
// every committed branch is shifted into the PB register, indirect jmp/jsr
// targets also into the PIB register, and the BIU learns annotation bits.
func (p *PPM) Observe(r trace.Record) {
	if p.cfg.Mode != PIBOnly {
		p.biu.Observe(r)
	}
	p.push(r.Target, r.PIBStream())
}

// ProcessBlock implements the engine's batch fast path: one pass over the
// block's lanes replaying the record protocol with the Observe fan-out
// devirtualized — the mode check is hoisted out of the loop, the BIU class
// check is folded into the meta-byte dispatch, and the history registers
// are pushed through the push Observe uses, with the stream read off the
// meta byte instead of re-decided per register (the PB register accepts
// every branch; the PIB register exactly the indirect jmp/jsr records).
// Each indirect record probes the BIU once: an MT record sets the MT bit on
// the entry Predict selected its history with, the entry the record's
// Observe would find. BIU touches stay in record order,
// so a bounded BIU's FIFO eviction sequence is identical to the record
// loop's.
//
//ppm:hotpath whole-block PPM replay
func (p *PPM) ProcessBlock(b *trace.Block, preds []predictor.Prediction) {
	hyb := p.cfg.Mode != PIBOnly
	metas := b.Meta
	pcs := b.PC[:len(metas)]
	tgts := b.Target[:len(metas)]
	j := 0
	for i, m := range metas {
		tgt := tgts[i]
		cls := trace.Class(m & trace.MetaClassMask)
		pib := cls == trace.IndirectJmp || cls == trace.IndirectJsr
		if pib && m&trace.MetaMT != 0 {
			pc := pcs[i]
			target, ok := p.Predict(pc)
			preds[j] = predictor.Prediction{Target: target, Predicted: ok}
			j++
			p.Update(pc, tgt)
			if hyb {
				p.pending.sel.MT = true
			}
		} else if hyb && (pib || cls == trace.Return || cls == trace.JsrCoroutine) {
			p.biu.ObserveIndirect(pcs[i], m&trace.MetaMT != 0)
		}
		p.push(tgt, pib)
	}
}

// Stats returns the per-component access/miss distribution.
func (p *PPM) Stats() ComponentStats { return p.stats }

// Tables exposes the Markov stack for diagnostics (occupancy reports).
func (p *PPM) Tables() []*MarkovTable { return p.tables }

// Reset implements predictor.Resetter.
func (p *PPM) Reset() {
	for _, t := range p.tables {
		t.reset()
	}
	p.zero = markovEntry{}
	p.pb.Reset()
	p.pib.Reset()
	if p.pbFolds != nil {
		p.pbFolds.reset()
	}
	p.pibFolds.reset()
	p.biu.Reset()
	p.pending.sel = nil
	p.stats = newComponentStats(p.cfg.Order)
}

var (
	_ predictor.IndirectPredictor = (*PPM)(nil)
	_ predictor.Sized             = (*PPM)(nil)
	_ predictor.Resetter          = (*PPM)(nil)
	_ predictor.Costed            = (*PPM)(nil)
)

// Bits implements predictor.Costed: the Markov stack entries plus the two
// 100-bit path history registers of Figure 4 (the BIU is excluded, as for
// every design; selection counters live there).
func (p *PPM) Bits() int {
	per := 30 + 1 + 2
	if p.cfg.Tagged {
		per += 16
	}
	n := per // order-0 component
	for _, t := range p.tables {
		n += t.Len() * per
	}
	phr := p.cfg.Order * int(p.cfg.TargetBits)
	if p.cfg.Mode == PIBOnly {
		return n + phr
	}
	return n + 2*phr
}
