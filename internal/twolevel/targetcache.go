package twolevel

import (
	"fmt"
	"math/bits"

	"repro/internal/hashing"
	"repro/internal/history"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// TargetCacheConfig parameterizes a Target Cache (Chang et al., ISCA 1997):
// a single tagless table of targets indexed by gshare of the branch address
// and a path history register recording partial targets from a selected
// branch stream. Unlike GAp entries, Target Cache entries are replaced
// immediately on a target mispredict.
type TargetCacheConfig struct {
	Name          string
	Entries       int // power of two
	HistoryBits   uint
	BitsPerTarget uint
	// HistoryStream is the stream the register records: PIB or MT, the
	// streams with a block index lane.
	HistoryStream history.Stream
	// Tagged adds a branch-address tag to every entry (the tagged-variant
	// study the paper lists as future work): lookups require a tag match,
	// trading capacity for immunity to cross-branch aliasing.
	Tagged bool
}

// TargetCache is the TC predictor of Section 5.
type TargetCache struct {
	cfg        TargetCacheConfig
	table      []tcEntry
	hist       *history.PHR
	bits       uint // log2(len(table)): the index width
	pending    uint64
	pendingTag uint64
}

type tcEntry struct {
	valid  bool
	tag    uint64
	target uint64
}

// NewTargetCache builds a Target Cache. Panics if the configuration is
// invalid, including a history stream with no block index lane
// (history.Stream.HasLane).
func NewTargetCache(cfg TargetCacheConfig) *TargetCache {
	if cfg.Entries <= 0 || cfg.Entries&(cfg.Entries-1) != 0 {
		panic(fmt.Sprintf("twolevel: target cache entries must be a positive power of two, got %d", cfg.Entries))
	}
	if cfg.BitsPerTarget == 0 {
		panic("twolevel: target cache bits per target must be positive")
	}
	if !cfg.HistoryStream.HasLane() {
		panic(fmt.Sprintf("twolevel: target cache history stream %v has no block index lane", cfg.HistoryStream))
	}
	depth := int((cfg.HistoryBits + cfg.BitsPerTarget - 1) / cfg.BitsPerTarget)
	if depth < 1 {
		depth = 1
	}
	return &TargetCache{
		cfg:   cfg,
		table: make([]tcEntry, cfg.Entries),
		hist:  history.New(cfg.HistoryStream, depth, cfg.BitsPerTarget, cfg.HistoryBits),
		bits:  uint(bits.TrailingZeros(uint(cfg.Entries))),
	}
}

// Name implements predictor.IndirectPredictor.
func (t *TargetCache) Name() string {
	if t.cfg.Name != "" {
		return t.cfg.Name
	}
	return "TC"
}

// Entries implements predictor.Sized.
func (t *TargetCache) Entries() int { return t.cfg.Entries }

func (t *TargetCache) index(pc uint64) uint64 {
	return hashing.GShare(t.hist.Packed(), pc, t.bits)
}

// tcTagBits is the width of the mixed tags the table stores.
const tcTagBits = 24

// Predict implements predictor.IndirectPredictor.
func (t *TargetCache) Predict(pc uint64) (uint64, bool) {
	idx := t.index(pc)
	t.pending = idx
	t.pendingTag = hashing.Mix64(pc>>2) >> (64 - tcTagBits)
	e := t.table[idx] // GShare truncates to floor(log2(len(table))) bits, so idx < len(table)
	if !e.valid {
		return 0, false
	}
	if t.cfg.Tagged && e.tag != t.pendingTag {
		return 0, false
	}
	return e.target, true
}

// Update implements predictor.IndirectPredictor. The Target Cache always
// installs the actual target — no replacement hysteresis.
func (t *TargetCache) Update(_, target uint64) {
	// pending holds the GShare-truncated index Predict stored.
	t.table[t.pending] = tcEntry{valid: true, tag: t.pendingTag, target: target}
}

// Observe implements predictor.IndirectPredictor.
func (t *TargetCache) Observe(r trace.Record) { t.hist.Observe(r) }

// ProcessBlock implements the engine's batch fast path; like GAp, the only
// non-MT work is the history register, so the loop walks its stream's index
// lane.
//
//ppm:hotpath whole-block Target Cache replay over its stream's index lane
func (t *TargetCache) ProcessBlock(b *trace.Block, preds []predictor.Prediction) {
	pcs, tgts, metas := b.PC, b.Target, b.Meta
	j := 0
	for _, k := range t.hist.Stream().Lane(b) {
		tgt := tgts[k]
		if metas[k]&trace.MetaMT != 0 {
			pc := pcs[k]
			target, ok := t.Predict(pc)
			preds[j] = predictor.Prediction{Target: target, Predicted: ok}
			j++
			t.Update(pc, tgt)
		}
		t.hist.Push(tgt)
	}
}

// Reset implements predictor.Resetter.
func (t *TargetCache) Reset() {
	for i := range t.table {
		t.table[i] = tcEntry{}
	}
	t.hist.Reset()
}

// PaperTCPIB returns the exact TC-PIB configuration of Section 5: a tagless
// 2K-entry Target Cache, gshare indexed, with an 11-bit PIB path history
// register recording the 2 low-order bits of previous indirect-branch
// targets.
func PaperTCPIB() *TargetCache {
	return NewTargetCache(TargetCacheConfig{
		Name:          "TC-PIB",
		Entries:       2048,
		HistoryBits:   11,
		BitsPerTarget: 2,
		HistoryStream: history.IndirectBranches,
	})
}

var (
	_ predictor.IndirectPredictor = (*TargetCache)(nil)
	_ predictor.Sized             = (*TargetCache)(nil)
	_ predictor.Resetter          = (*TargetCache)(nil)
	_ predictor.Costed            = (*TargetCache)(nil)
)

// Bits implements predictor.Costed.
func (t *TargetCache) Bits() int {
	per := 30 + 1
	if t.cfg.Tagged {
		per += 24
	}
	return t.cfg.Entries*per + int(t.cfg.HistoryBits)
}
