package twolevel

import (
	"fmt"

	"repro/internal/hashing"
	"repro/internal/history"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// Indexing selects how a GAp component forms its PHT index from the path
// history register and the branch address.
type Indexing uint8

const (
	// GShare XORs the packed history with the branch address (Chang et
	// al.; the paper's GAp and Target Cache configurations).
	GShare Indexing = iota
	// ReverseInterleave interleaves bit-reversed history with address
	// bits (Driesen & Hölzle; the paper's Dual-path configuration).
	ReverseInterleave
)

// GApConfig parameterizes one GAp-style two-level component.
type GApConfig struct {
	// Name labels the predictor.
	Name string
	// Entries is the total PHT entry count (power of two).
	Entries int
	// PHTs splits the entries across this many per-address tables,
	// selected by low-order PC bits (the "p" in GAp). 1 gives a single
	// global table.
	PHTs int
	// Assoc and Tagged select the table organisation (tagged 4-way for
	// the Cascade components; tagless direct-mapped otherwise).
	Assoc  int
	Tagged bool
	// PathLength is the number of targets recorded in the history
	// register; BitsPerTarget how many low-order bits of each.
	PathLength    int
	BitsPerTarget uint
	// HistoryStream is the stream the register records: PIB or MT, the
	// streams with a block index lane.
	HistoryStream history.Stream
	Indexing      Indexing
	// HistoryBits optionally widens the shift register beyond
	// PathLength*BitsPerTarget (the Dual-path predictor uses a 24-bit
	// register regardless of path length). 0 means PathLength*BitsPerTarget.
	HistoryBits uint
	// Useful turns on ITTAGE-style u-bit replacement in the (necessarily
	// tagged) PHTs: per-entry usefulness counters gate eviction and halve
	// every UsefulResetPeriod updates.
	Useful            bool
	UsefulResetPeriod uint64
}

func (c GApConfig) historyBits() uint {
	if c.HistoryBits != 0 {
		return c.HistoryBits
	}
	return uint(c.PathLength) * c.BitsPerTarget
}

func (c GApConfig) validate() error {
	if c.Entries <= 0 || c.Entries&(c.Entries-1) != 0 {
		return fmt.Errorf("twolevel: entries must be a positive power of two, got %d", c.Entries)
	}
	if c.PHTs <= 0 || c.PHTs&(c.PHTs-1) != 0 {
		return fmt.Errorf("twolevel: PHT count must be a positive power of two, got %d", c.PHTs)
	}
	if c.Entries%c.PHTs != 0 {
		return fmt.Errorf("twolevel: %d PHTs do not divide %d entries", c.PHTs, c.Entries)
	}
	if c.PathLength <= 0 {
		return fmt.Errorf("twolevel: path length must be positive, got %d", c.PathLength)
	}
	if c.BitsPerTarget == 0 || c.BitsPerTarget > 32 {
		return fmt.Errorf("twolevel: bits per target must be in [1,32], got %d", c.BitsPerTarget)
	}
	if c.Useful && !c.Tagged {
		return fmt.Errorf("twolevel: useful-mode replacement needs tagged tables")
	}
	if c.Useful && c.UsefulResetPeriod == 0 {
		return fmt.Errorf("twolevel: useful mode needs a positive reset period")
	}
	if !c.HistoryStream.HasLane() {
		return fmt.Errorf("twolevel: history stream %v has no block index lane", c.HistoryStream)
	}
	return nil
}

// GAp is a two-level adaptive indirect target predictor with a global path
// history register and per-address pattern history tables, per Driesen &
// Hölzle as configured in Section 5.
type GAp struct {
	cfg      GApConfig
	tables   []*PHT
	hist     *history.PHR
	histBits uint // cfg.historyBits(), the register width
	pending  struct {
		table *PHT
		index uint64
		tag   uint64
	}
}

// NewGAp builds a GAp component. Panics if the configuration is invalid,
// including a history stream with no block index lane
// (history.Stream.HasLane), which is always a programming error in this
// repository's fixed experiment set.
func NewGAp(cfg GApConfig) *GAp {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	perTable := cfg.Entries / cfg.PHTs
	tables := make([]*PHT, cfg.PHTs)
	for i := range tables {
		if cfg.Useful {
			tables[i] = NewPHTUseful(perTable, maxInt(1, cfg.Assoc), cfg.UsefulResetPeriod)
		} else {
			tables[i] = NewPHT(perTable, maxInt(1, cfg.Assoc), cfg.Tagged)
		}
		tables[i].maxTag = 1<<gapTagBits - 1
	}
	hb := cfg.historyBits()
	return &GAp{
		cfg:      cfg,
		tables:   tables,
		hist:     history.New(cfg.HistoryStream, cfg.PathLength, cfg.BitsPerTarget, hb),
		histBits: hb,
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Name implements predictor.IndirectPredictor.
func (g *GAp) Name() string {
	if g.cfg.Name != "" {
		return g.cfg.Name
	}
	return "GAp"
}

// Entries implements predictor.Sized.
func (g *GAp) Entries() int { return g.cfg.Entries }

// index computes the table and set index for a branch address under the
// current history. The table count is a power of two, so one table masks
// the selector to zero.
func (g *GAp) index(pc uint64) (*PHT, uint64) {
	table := g.tables[(pc>>2)&uint64(len(g.tables)-1)]
	bits := table.bits
	switch {
	case g.cfg.Tagged:
		// Tagged tables carry branch identity in the tag, so the whole
		// index budget goes to folded path history.
		return table, hashing.Fold(g.hist.Packed(), g.histBits, bits)
	case g.cfg.Indexing == GShare:
		return table, hashing.GShare(g.hist.Packed(), pc, bits)
	}
	return table, hashing.ReverseInterleave(g.hist.Packed(), g.histBits, pc, bits)
}

// gapTagBits is the width of the mixed tags the tagged variants store.
const gapTagBits = 24

// gapTag is the mixed tag of a branch address in the tagged variants.
//
//ppm:hotpath per-lookup index-hash helper; runs once per table probe
func gapTag(pc uint64) uint64 { return hashing.Mix64(pc>>2) >> (64 - gapTagBits) }

// Predict implements predictor.IndirectPredictor. Only tagged tables read
// a tag, so a tagless GAp derives none.
func (g *GAp) Predict(pc uint64) (uint64, bool) {
	var tag uint64
	if g.cfg.Tagged {
		tag = gapTag(pc)
	}
	return g.predict(pc, tag)
}

// predict is Predict with the branch's tag already derived: gapTag(pc) for
// a tagged GAp; a tagless one ignores it.
func (g *GAp) predict(pc, tag uint64) (uint64, bool) {
	table, idx := g.index(pc)
	g.pending.table, g.pending.index, g.pending.tag = table, idx, tag
	if e := table.Lookup(idx, tag); e != nil {
		table.Touch(idx, tag)
		return e.Target(), true
	}
	return 0, false
}

// Update implements predictor.IndirectPredictor.
func (g *GAp) Update(pc, target uint64) { g.UpdateAlloc(pc, target, true) }

// UpdateAlloc resolves the pending prediction like Update but lets the
// caller suppress allocation of new entries — the hook the Cascade
// predictor's leaky-filter protocol needs to keep monomorphic branches out
// of its main tables.
func (g *GAp) UpdateAlloc(_, target uint64, allocate bool) {
	g.pending.table.Update(g.pending.index, g.pending.tag, target, allocate)
}

// Observe implements predictor.IndirectPredictor.
func (g *GAp) Observe(r trace.Record) { g.hist.Observe(r) }

// ProcessBlock implements the engine's batch fast path. A GAp's only
// per-record work outside MT-indirect branches is its history register, so
// the loop walks its stream's index lane and never visits the rest of the
// block.
//
//ppm:hotpath whole-block GAp replay over its stream's index lane
func (g *GAp) ProcessBlock(b *trace.Block, preds []predictor.Prediction) {
	pcs, tgts, metas := b.PC, b.Target, b.Meta
	j := 0
	for _, k := range g.hist.Stream().Lane(b) {
		tgt := tgts[k]
		if metas[k]&trace.MetaMT != 0 {
			pc := pcs[k]
			target, ok := g.Predict(pc)
			preds[j] = predictor.Prediction{Target: target, Predicted: ok}
			j++
			g.Update(pc, tgt)
		}
		g.hist.Push(tgt)
	}
}

// Reset implements predictor.Resetter.
func (g *GAp) Reset() {
	for _, t := range g.tables {
		t.Reset()
	}
	g.hist.Reset()
}

// PaperGAp returns the exact GAp configuration of Section 5: two tagless 1K
// PHTs, a 10-bit path history register recording the 2 low-order bits of
// each of the last 5 indirect-branch targets, gshare indexing, and a 2-bit
// replacement counter per entry.
func PaperGAp() *GAp {
	return NewGAp(GApConfig{
		Name:          "GAp",
		Entries:       2048,
		PHTs:          2,
		Assoc:         1,
		PathLength:    5,
		BitsPerTarget: 2,
		HistoryStream: history.IndirectBranches,
		Indexing:      GShare,
	})
}

var (
	_ predictor.IndirectPredictor = (*GAp)(nil)
	_ predictor.Sized             = (*GAp)(nil)
	_ predictor.Resetter          = (*GAp)(nil)
	_ predictor.Costed            = (*GAp)(nil)
)

// Bits implements predictor.Costed.
func (g *GAp) Bits() int {
	per := 30 + 1 + 2 // target, valid, replacement counter
	if g.cfg.Tagged {
		per += 24 + 2 // tag and LRU stamp (2 bits suffice for 4 ways)
	}
	if g.cfg.Useful {
		per += 2 // usefulness counter
	}
	return g.cfg.Entries*per + int(g.histBits)
}
