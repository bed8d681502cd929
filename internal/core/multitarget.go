package core

import (
	"repro/internal/hashing"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// This file implements the design alternative Section 4 of the paper
// describes and rejects: "The original Markov model requires multiple
// outgoing arcs from each state, keeping frequency counts for each possible
// target. ... It requires storing multiple targets per PHT entry along with
// their frequency counts, and uses a majority voting mechanism to select
// the next target. Instead we store the most recently visited target."
//
// MultiMarkovTable keeps K (target, saturating count) slots per state and
// predicts the highest-count target, so the cost/accuracy trade-off behind
// the paper's simplification can be measured (see cmd/experiments -multi).

// mtCountMax is where an arc's count saturates: train halves a state's
// counts before an increment past it, so no count exceeds it.
const mtCountMax = 15

// mtSlot is one outgoing arc of a Markov state.
type mtSlot struct {
	target uint64
	count  uint8
}

// multiEntry is a Markov state with frequency-counted outgoing arcs. slots
// is a fixed-capacity window into the table's single backing array,
// allocated once at construction; n tracks how many arcs are in use, so the
// steady-state train path never grows anything.
type multiEntry struct {
	valid bool
	n     int
	slots []mtSlot
}

// MultiMarkovTable is the order-j component with K-slot entries.
type MultiMarkovTable struct {
	order   uint
	k       int
	entries []multiEntry
}

// NewMultiMarkovTable builds the order-j table with 2^order states of k
// arcs each. All slot storage — 2^order * k arcs — is carved out of one
// backing array here, modelling the fixed SRAM budget the hardware would
// commit to; Update never allocates. Panics if k < 1.
func NewMultiMarkovTable(order uint, k int) *MultiMarkovTable {
	if k < 1 {
		panic("core: multi-target slots must be >= 1")
	}
	t := &MultiMarkovTable{order: order, k: k, entries: make([]multiEntry, 1<<order)}
	backing := make([]mtSlot, len(t.entries)*k)
	for i := range t.entries {
		t.entries[i].slots = backing[i*k : (i+1)*k]
	}
	return t
}

// lookup returns the majority-vote target for the state, or ok=false when
// the state has no arcs (zero frequency counts).
func (t *MultiMarkovTable) lookup(idx uint64) (uint64, bool) {
	e := &t.entries[idx&uint64(len(t.entries)-1)]
	if !e.valid {
		return 0, false
	}
	best := 0
	var bestCount uint8
	for i, s := range e.slots[:e.n] {
		if s.count > bestCount {
			bestCount = s.count
			best = i
		}
	}
	// Arcs aged to a zero count never win; no winner means no prediction.
	if bestCount == 0 {
		return 0, false
	}
	return e.slots[best].target, true
}

// train counts the observed transition: an existing arc's count saturates
// upward; a new target replaces the lowest-count arc when the state is
// full. When a count saturates, all counts in the state are halved so the
// distribution keeps adapting (standard frequency-count aging).
func (t *MultiMarkovTable) train(idx uint64, target uint64) {
	e := &t.entries[idx&uint64(len(t.entries)-1)]
	e.valid = true
	for i, s := range e.slots[:e.n] {
		if s.target == target {
			if s.count >= mtCountMax {
				for j := range e.slots[:e.n] {
					e.slots[j].count >>= 1
				}
			}
			e.slots[i].count++
			return
		}
	}
	if e.n < t.k {
		// The constructor carves exactly k slots per entry, so e.n < len(e.slots).
		e.slots[e.n] = mtSlot{target: target, count: 1}
		e.n++
		return
	}
	min := 0
	for i, s := range e.slots[:e.n] {
		if s.count < e.slots[min].count {
			min = i
		}
	}
	e.slots[min] = mtSlot{target: target, count: 1}
}

func (t *MultiMarkovTable) reset() {
	for i := range t.entries {
		e := &t.entries[i]
		e.valid = false
		e.n = 0
		for j := range e.slots {
			e.slots[j] = mtSlot{}
		}
	}
}

// MultiPPM is the PPM predictor built on frequency-counted multi-target
// Markov states — the "original Markov model" organisation of Section 4.
// It shares the SFSXS indexing, update exclusion, and PIB path history of
// the production design (PB/PIB hybrid selection is orthogonal and omitted
// to isolate the entry-organisation variable).
type MultiPPM struct {
	inner  *PPM // reused for history management and config validation
	tables []*MultiMarkovTable
	k      int
	name   string

	pending struct {
		indices []uint64
		chosen  int
		target  uint64
		ok      bool
	}
}

// NewMultiTarget builds an order-m PPM with k frequency-counted targets
// per Markov state, PIB history only.
func NewMultiTarget(order, k int) *MultiPPM {
	cfg := DefaultConfig(PIBOnly)
	cfg.Order = order
	inner := New(cfg)
	tables := make([]*MultiMarkovTable, order)
	for j := 1; j <= order; j++ {
		tables[j-1] = NewMultiMarkovTable(uint(j), k)
	}
	m := &MultiPPM{
		inner:  inner,
		tables: tables,
		k:      k,
		name:   "PPM-multi",
	}
	m.pending.indices = make([]uint64, order)
	return m
}

// Name implements predictor.IndirectPredictor.
func (m *MultiPPM) Name() string { return m.name }

// SetName overrides the display label.
func (m *MultiPPM) SetName(n string) { m.name = n }

// Entries reports states x slots, the storage the majority-vote design
// pays for.
func (m *MultiPPM) Entries() int {
	n := 0
	for _, t := range m.tables {
		n += len(t.entries) * m.k
	}
	return n + 1
}

// Predict implements predictor.IndirectPredictor: highest order whose
// state has any recorded arc answers with its majority target.
func (m *MultiPPM) Predict(pc uint64) (uint64, bool) {
	cfg := m.inner.Config()
	pd := &m.pending
	pd.chosen = -1
	pd.ok = false
	pd.target = 0
	// Same all-orders pass as PPM.Predict over the inner PPM's PIB folds:
	// each order's SFSXS hash nests inside the next.
	hashing.SFSXSNest(pd.indices, m.inner.pibFolds.window(), cfg.FoldBits, cfg.LowSelect)
	// indices and tables both hold Order entries, order j at j-1.
	for j := cfg.Order; j >= 1; j-- {
		idx := pd.indices[j-1]
		if tgt, ok := m.tables[j-1].lookup(idx); ok {
			pd.chosen = j
			pd.target = tgt
			pd.ok = true
			break
		}
	}
	_ = pc
	return pd.target, pd.ok
}

// Update implements predictor.IndirectPredictor with update exclusion over
// the frequency counts.
func (m *MultiPPM) Update(_, target uint64) {
	pd := &m.pending
	low := pd.chosen
	if low < 0 {
		low = 1
	}
	for j := m.inner.Config().Order; j >= low; j-- {
		m.tables[j-1].train(pd.indices[j-1], target)
	}
}

// Observe implements predictor.IndirectPredictor.
func (m *MultiPPM) Observe(r trace.Record) { m.inner.Observe(r) }

// ProcessBlock implements the engine's batch fast path: the multi-target
// Predict/Update protocol per MT indirect record with the inner PPM's
// Observe fan-out devirtualized, mirroring PPM.ProcessBlock. The inner
// predictor is PIB-only, so no record touches the BIU.
//
//ppm:hotpath whole-block multi-target PPM replay
func (m *MultiPPM) ProcessBlock(b *trace.Block, preds []predictor.Prediction) {
	p := m.inner
	metas := b.Meta
	pcs := b.PC[:len(metas)]
	tgts := b.Target[:len(metas)]
	j := 0
	for i, mb := range metas {
		tgt := tgts[i]
		cls := trace.Class(mb & trace.MetaClassMask)
		pib := cls == trace.IndirectJmp || cls == trace.IndirectJsr
		if pib && mb&trace.MetaMT != 0 {
			pc := pcs[i]
			target, ok := m.Predict(pc)
			preds[j] = predictor.Prediction{Target: target, Predicted: ok}
			j++
			m.Update(pc, tgt)
		}
		p.push(tgt, pib)
	}
}

// Reset implements predictor.Resetter.
func (m *MultiPPM) Reset() {
	for _, t := range m.tables {
		t.reset()
	}
	m.inner.Reset()
}

var (
	_ predictor.IndirectPredictor = (*MultiPPM)(nil)
	_ predictor.Sized             = (*MultiPPM)(nil)
	_ predictor.Resetter          = (*MultiPPM)(nil)
)
