// Package cascade implements the Cascaded predictor of Driesen & Hölzle
// (MICRO-31, 1998) as configured in Section 5 of the paper under study: a
// tagged Dual-path hybrid main predictor (4-way set-associative PHTs, true
// LRU, path lengths 6 and 4) guarded by a 128-entry leaky filter.
//
// The filter is a small tagged BTB-like structure that serves monomorphic
// and low-entropy branches. A branch is only promoted ("leaked") into the
// main predictor once the filter mispredicts it — evidence that it is
// polymorphic — which keeps easy branches from displacing strongly
// correlated ones in the main tables. Prediction priority is main-on-tag-hit
// first, filter second.
package cascade

import (
	"fmt"

	"repro/internal/counter"
	"repro/internal/hashing"
	"repro/internal/history"
	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/twolevel"
)

// FilterPolicy selects between the two filter disciplines Driesen &
// Hölzle describe.
type FilterPolicy uint8

const (
	// Leaky (the paper's evaluated configuration): the filter's 2-bit
	// hysteresis lets a branch that briefly wobbles re-settle in the
	// filter; the main predictor trains whenever the filter is wrong.
	Leaky FilterPolicy = iota
	// Strict: a branch that has ever shown a second target is marked
	// polymorphic permanently; the filter never again serves it and the
	// main predictor owns it outright.
	Strict
)

// String names the policy.
func (p FilterPolicy) String() string {
	if p == Strict {
		return "strict"
	}
	return "leaky"
}

// Config parameterizes a Cascade predictor.
type Config struct {
	Name          string
	FilterEntries int // power of two
	Policy        FilterPolicy
	Main          twolevel.DualPathConfig
}

type filterEntry struct {
	valid  bool
	poly   bool // strict policy: branch has shown more than one target
	tag    uint64
	target uint64
	hyst   counter.Hysteresis
}

// Cascade is the two-stage filtered predictor.
type Cascade struct {
	cfg     Config
	filter  []filterEntry
	main    *twolevel.DualPath
	pending struct {
		fIdx     uint64
		fTag     uint64
		fHit     bool
		fTarget  uint64
		mainTgt  uint64
		mainOK   bool
		usedMain bool
	}

	// statistics for the filtering-effect analysis in Section 5
	filterServed uint64
	mainServed   uint64
	promotions   uint64
}

// New builds a Cascade predictor. Panics if the configuration is invalid,
// including a main predictor NewDualPath rejects.
func New(cfg Config) *Cascade {
	if cfg.FilterEntries <= 0 || cfg.FilterEntries&(cfg.FilterEntries-1) != 0 {
		panic(fmt.Sprintf("cascade: filter entries must be a positive power of two, got %d", cfg.FilterEntries))
	}
	return &Cascade{
		cfg:    cfg,
		filter: make([]filterEntry, cfg.FilterEntries),
		main:   twolevel.NewDualPath(cfg.Main),
	}
}

// Name implements predictor.IndirectPredictor.
func (c *Cascade) Name() string {
	if c.cfg.Name != "" {
		return c.cfg.Name
	}
	return "Cascade"
}

// Entries implements predictor.Sized.
func (c *Cascade) Entries() int { return len(c.filter) + c.main.Entries() }

// filterSlot masks the word-aligned pc into the filter.
func (c *Cascade) filterSlot(pc uint64) uint64 {
	return (pc >> 2) & uint64(len(c.filter)-1)
}

// filterTagBits is the width of the filter's mixed tags.
const filterTagBits = 24

// filterTag is the mixed tag distinguishing aliased branches.
func (c *Cascade) filterTag(pc uint64) uint64 {
	return hashing.Mix64(pc>>2) >> (64 - filterTagBits)
}

// Predict implements predictor.IndirectPredictor.
func (c *Cascade) Predict(pc uint64) (uint64, bool) {
	mTgt, mOK := c.main.Predict(pc)
	fIdx, fTag := c.filterSlot(pc), c.filterTag(pc)
	fe := &c.filter[fIdx]
	fHit := fe.valid && fe.tag == fTag

	p := &c.pending
	p.fIdx, p.fTag, p.fHit = fIdx, fTag, fHit
	p.fTarget = fe.target
	p.mainTgt, p.mainOK = mTgt, mOK

	if mOK {
		p.usedMain = true
		c.mainServed++
		return mTgt, true
	}
	p.usedMain = false
	if fHit && !(c.cfg.Policy == Strict && fe.poly) {
		c.filterServed++
		return fe.target, true
	}
	return 0, false
}

// Update implements predictor.IndirectPredictor.
func (c *Cascade) Update(pc, target uint64) {
	p := &c.pending
	fe := &c.filter[p.fIdx]

	// The branch leaks into the main tables once the filter proves unable
	// to predict it: either the filter entry held the wrong target, or
	// the slot was occupied by a different branch.
	filterWrong := !p.fHit || p.fTarget != target
	allocateMain := filterWrong
	if allocateMain && !p.mainOK {
		c.promotions++
	}
	c.main.UpdateAlloc(pc, target, allocateMain)

	// Train the filter. Tag mismatches displace the old branch; under the
	// leaky policy the hysteresis counter gives resident branches
	// two-consecutive-miss protection, while the strict policy brands a
	// branch polymorphic forever on its first target change.
	switch {
	case !fe.valid || fe.tag != p.fTag:
		*fe = filterEntry{valid: true, tag: p.fTag, target: target, hyst: counter.NewHysteresis()}
	case fe.target == target:
		fe.hyst.OnHit()
	default:
		fe.poly = true
		if fe.hyst.OnMiss() {
			fe.target = target
		}
	}
}

// Observe implements predictor.IndirectPredictor.
func (c *Cascade) Observe(r trace.Record) { c.main.Observe(r) }

// ProcessBlock implements the engine's batch fast path. The filter holds
// no history and both main components record one stream (NewDualPath
// checks), so the whole two-stage protocol is driven by that stream's
// index lane.
//
//ppm:hotpath whole-block Cascade replay over its stream's index lane
func (c *Cascade) ProcessBlock(b *trace.Block, preds []predictor.Prediction) {
	pcs, tgts, metas := b.PC, b.Target, b.Meta
	j := 0
	for _, k := range c.cfg.Main.Short.HistoryStream.Lane(b) {
		tgt := tgts[k]
		if metas[k]&trace.MetaMT != 0 {
			pc := pcs[k]
			target, ok := c.Predict(pc)
			preds[j] = predictor.Prediction{Target: target, Predicted: ok}
			j++
			c.Update(pc, tgt)
		}
		c.main.Push(tgt)
	}
}

// Stats reports how many predictions each stage served and how many
// branches were promoted into the main predictor.
func (c *Cascade) Stats() (filterServed, mainServed, promotions uint64) {
	return c.filterServed, c.mainServed, c.promotions
}

// Reset implements predictor.Resetter.
func (c *Cascade) Reset() {
	for i := range c.filter {
		c.filter[i] = filterEntry{}
	}
	c.main.Reset()
	c.filterServed, c.mainServed, c.promotions = 0, 0, 0
}

// Paper returns the exact Cascade configuration of Section 5: a 128-entry
// leaky filter in front of a Dual-path main predictor whose PHTs are tagged,
// 4-way set-associative with true LRU, and whose components use path lengths
// 6 and 4.
func Paper() *Cascade {
	return New(Config{
		Name:          "Cascade",
		FilterEntries: 128,
		Policy:        Leaky,
		Main: twolevel.DualPathConfig{
			Name:      "Cascade-main",
			Selectors: 1024,
			Short: twolevel.GApConfig{
				Name:          "Cascade-short",
				Entries:       1024,
				PHTs:          1,
				Assoc:         4,
				Tagged:        true,
				PathLength:    4,
				BitsPerTarget: 6,
				HistoryBits:   24,
				HistoryStream: history.MTIndirectBranches,
				Indexing:      twolevel.ReverseInterleave,
			},
			Long: twolevel.GApConfig{
				Name:          "Cascade-long",
				Entries:       1024,
				PHTs:          1,
				Assoc:         4,
				Tagged:        true,
				PathLength:    6,
				BitsPerTarget: 4,
				HistoryBits:   24,
				HistoryStream: history.MTIndirectBranches,
				Indexing:      twolevel.ReverseInterleave,
			},
		},
	})
}

// PaperU returns the u-bit-managed variant of the paper's Cascade: the
// identical 128-entry leaky filter and tagged 4-way Dual-path main tables,
// but with ITTAGE-style usefulness counters governing replacement — a way
// is only evictable once its counter decays to zero, conflicting sets age
// gradually instead of thrashing, and the counters halve every 2048
// updates (the graceful reset). It isolates how much of ITTAGE's gain
// comes from allocation discipline alone, with the 1998 history lengths
// held fixed.
func PaperU() *Cascade {
	return New(Config{
		Name:          "Cascade-u",
		FilterEntries: 128,
		Policy:        Leaky,
		Main: twolevel.DualPathConfig{
			Name:      "Cascade-u-main",
			Selectors: 1024,
			Short: twolevel.GApConfig{
				Name:              "Cascade-u-short",
				Entries:           1024,
				PHTs:              1,
				Assoc:             4,
				Tagged:            true,
				PathLength:        4,
				BitsPerTarget:     6,
				HistoryBits:       24,
				HistoryStream:     history.MTIndirectBranches,
				Indexing:          twolevel.ReverseInterleave,
				Useful:            true,
				UsefulResetPeriod: 2048,
			},
			Long: twolevel.GApConfig{
				Name:              "Cascade-u-long",
				Entries:           1024,
				PHTs:              1,
				Assoc:             4,
				Tagged:            true,
				PathLength:        6,
				BitsPerTarget:     4,
				HistoryBits:       24,
				HistoryStream:     history.MTIndirectBranches,
				Indexing:          twolevel.ReverseInterleave,
				Useful:            true,
				UsefulResetPeriod: 2048,
			},
		},
	})
}

var (
	_ predictor.IndirectPredictor = (*Cascade)(nil)
	_ predictor.Sized             = (*Cascade)(nil)
	_ predictor.Resetter          = (*Cascade)(nil)
	_ predictor.Costed            = (*Cascade)(nil)
)

// Bits implements predictor.Costed: the filter pays for its tags — the
// hardware-cost argument the paper makes for studying tagless designs.
func (c *Cascade) Bits() int {
	filter := len(c.filter) * (30 + 1 + 2 + 24)
	return filter + c.main.Bits()
}
