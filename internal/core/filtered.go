package core

import (
	"fmt"

	"repro/internal/counter"
	"repro/internal/hashing"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// FilteredPPM implements the extension Section 6 proposes as future work:
// coupling the PPM predictor with a Cascade-style leaky filter that
// isolates monomorphic and low-entropy branches. The paper observed that
// such branches, "when fed to the Markov predictors, displaced other
// branches that were strongly correlated"; the filter serves them directly
// and only branches it mispredicts are allowed to train the Markov stack.
type FilteredPPM struct {
	name   string
	filter []filterEntry
	ppm    *PPM
	pend   struct {
		fIdx    uint64
		fTag    uint64
		fHit    bool
		fTarget uint64
		usedPPM bool
	}

	filterServed uint64
	ppmServed    uint64
}

type filterEntry struct {
	valid  bool
	tag    uint64
	target uint64
	hyst   counter.Hysteresis
}

// NewFiltered wraps a PPM predictor with a leaky filter of the given entry
// count. Panics if filterEntries is not a positive power of two.
func NewFiltered(ppm *PPM, filterEntries int) *FilteredPPM {
	if filterEntries <= 0 || filterEntries&(filterEntries-1) != 0 {
		panic(fmt.Sprintf("core: filter entries must be a positive power of two, got %d", filterEntries))
	}
	return &FilteredPPM{
		name:   ppm.Name() + "+filter",
		filter: make([]filterEntry, filterEntries),
		ppm:    ppm,
	}
}

// PaperFiltered returns the future-work configuration evaluated in
// EXPERIMENTS.md: the PPM-hyb predictor behind a 128-entry leaky filter.
func PaperFiltered() *FilteredPPM { return NewFiltered(PaperHyb(), 128) }

// Name implements predictor.IndirectPredictor.
func (f *FilteredPPM) Name() string { return f.name }

// Entries implements predictor.Sized.
func (f *FilteredPPM) Entries() int { return len(f.filter) + f.ppm.Entries() }

// PPM exposes the wrapped Markov stack.
func (f *FilteredPPM) PPM() *PPM { return f.ppm }

// filterSlot masks the word-aligned pc into the filter.
func (f *FilteredPPM) filterSlot(pc uint64) uint64 {
	return (pc >> 2) & uint64(len(f.filter)-1)
}

// filterTagBits is the width of the filter's mixed tags.
const filterTagBits = 24

// filterTag is the mixed tag distinguishing aliased branches.
func (f *FilteredPPM) filterTag(pc uint64) uint64 {
	return hashing.Mix64(pc>>2) >> (64 - filterTagBits)
}

// Predict implements predictor.IndirectPredictor: a saturated-confidence
// filter hit serves directly — that is the monomorphic/low-entropy
// population the filter exists to isolate — otherwise the Markov stack
// answers, with an unconfident filter entry as the last resort. A branch
// wobbling in the filter (unsaturated counter) keeps training the stack, so
// only genuinely monomorphic behaviour is withheld from the Markov tables.
func (f *FilteredPPM) Predict(pc uint64) (uint64, bool) {
	tgt, ok := f.ppm.Predict(pc)
	idx, tag := f.filterSlot(pc), f.filterTag(pc)
	fe := &f.filter[idx]
	fHit := fe.valid && fe.tag == tag

	f.pend.fIdx, f.pend.fTag, f.pend.fHit, f.pend.fTarget = idx, tag, fHit, fe.target
	if fHit && fe.hyst.Value() >= 3 {
		f.pend.usedPPM = false
		f.filterServed++
		return fe.target, true
	}
	if ok {
		f.pend.usedPPM = true
		f.ppmServed++
		return tgt, true
	}
	f.pend.usedPPM = false
	if fHit {
		f.filterServed++
		return fe.target, true
	}
	return 0, false
}

// Update implements predictor.IndirectPredictor with the leaky protocol:
// the filter always trains; the Markov stack trains only for branches the
// filter failed on (polymorphic behaviour), keeping easy branches from
// displacing correlated ones.
func (f *FilteredPPM) Update(pc, target uint64) {
	fe := &f.filter[f.pend.fIdx]
	// Withhold Markov training only for branches the filter holds with
	// saturated confidence — the monomorphic population whose table
	// pollution the paper identified. Everything else keeps training.
	filterOwns := f.pend.fHit && f.pend.fTarget == target && fe.hyst.Value() >= 3
	f.ppm.UpdateAlloc(pc, target, !filterOwns)

	switch {
	case !fe.valid || fe.tag != f.pend.fTag:
		*fe = filterEntry{valid: true, tag: f.pend.fTag, target: target, hyst: counter.NewHysteresis()}
	case fe.target == target:
		fe.hyst.OnHit()
	default:
		if fe.hyst.OnMiss() {
			fe.target = target
		}
	}
}

// Observe implements predictor.IndirectPredictor.
func (f *FilteredPPM) Observe(r trace.Record) { f.ppm.Observe(r) }

// ProcessBlock implements the engine's batch fast path: the filter's
// Predict/Update protocol per MT indirect record with the wrapped PPM's
// Observe fan-out devirtualized exactly as PPM.ProcessBlock does it (the
// filter itself keeps no path history, so only the wrapped stack observes),
// one BIU probe per indirect record included.
//
//ppm:hotpath whole-block filtered-PPM replay
func (f *FilteredPPM) ProcessBlock(b *trace.Block, preds []predictor.Prediction) {
	p := f.ppm
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
			target, ok := f.Predict(pc)
			preds[j] = predictor.Prediction{Target: target, Predicted: ok}
			j++
			f.Update(pc, tgt)
			if hyb {
				p.pending.sel.MT = true
			}
		} else if hyb && (pib || cls == trace.Return || cls == trace.JsrCoroutine) {
			p.biu.ObserveIndirect(pcs[i], m&trace.MetaMT != 0)
		}
		p.push(tgt, pib)
	}
}

// Stats reports how many predictions each stage served.
func (f *FilteredPPM) Stats() (filterServed, ppmServed uint64) {
	return f.filterServed, f.ppmServed
}

// Reset implements predictor.Resetter.
func (f *FilteredPPM) Reset() {
	for i := range f.filter {
		f.filter[i] = filterEntry{}
	}
	f.ppm.Reset()
	f.filterServed, f.ppmServed = 0, 0
}

var (
	_ predictor.IndirectPredictor = (*FilteredPPM)(nil)
	_ predictor.Sized             = (*FilteredPPM)(nil)
	_ predictor.Resetter          = (*FilteredPPM)(nil)
)
