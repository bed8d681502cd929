// Package sim is the trace-driven simulation engine: it drives committed
// branch records through a set of indirect-branch predictors using the
// protocol the paper's hardware implies — predict at fetch with the
// pre-update history, resolve and train, then advance path history — and
// accumulates the misprediction statistics of Section 5. A RAS is simulated
// alongside to account for returns, which are excluded from the indirect
// predictors' workload.
//
// The block engine (ProcessBlock, ProcessBlocks, ProcessReader) is the
// production path: the experiment grid, trace uploads and live sessions
// all run on it. Each predictor replays a whole columnar block before the
// next and writes its prediction at every MT dispatch into a prediction
// lane the engine owns per predictor (Predictions); the engine derives the
// accuracy counters from that lane and the block's Target lane in one
// pass. ProcessReader goes further, replaying a streamed trace through
// each predictor on a goroutine of its own while the caller decodes into a
// ring of RingSlots blocks. Process and ProcessPredicted are the
// record-at-a-time reference the block engine is checked against.
//
// Predictors share no state with each other or with the RAS, and the
// engine relies on it: every front end yields the same counters and the
// same per-dispatch predictions as the record-at-a-time Process loop. An
// engine itself is not safe for concurrent use, and one predictor instance
// must not be attached twice (New panics).
package sim

import (
	"reflect"

	"repro/internal/predictor"
	"repro/internal/ras"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Engine drives one record stream through any number of predictors.
type Engine struct {
	lanes    []lane
	counters []stats.Counters
	ras      *ras.Stack
	records  uint64
	instrs   uint64
}

// lane is one attached predictor with its optional capabilities resolved
// at construction, so neither the record loop nor the block loop pays a
// type assertion per predictor.
type lane struct {
	p predictor.IndirectPredictor
	// va is non-nil iff p consumes the switch variable value.
	va ValueAware
	// bp is non-nil iff p opts into whole-block processing via
	// BlockPredictor, letting the block engine skip the record-at-a-time
	// fallback for it.
	bp BlockPredictor
	// c is p's entry in the engine's counters.
	c *stats.Counters
	// preds is p's prediction lane under ProcessBlock: its prediction at
	// each MT dispatch of the last block it replayed, in MTIdx order. Its
	// capacity never exceeds the largest block's record capacity.
	preds []predictor.Prediction
}

// New builds an engine over the given predictors. A 64-deep RAS is
// simulated for return accounting. Panics if the same predictor instance
// is attached twice: ProcessReader replays each predictor on its own
// goroutine, and one instance must never run on two.
func New(preds ...predictor.IndirectPredictor) *Engine {
	e := &Engine{
		lanes:    make([]lane, len(preds)),
		counters: make([]stats.Counters, len(preds)),
		ras:      ras.New(64),
	}
	for i, p := range preds {
		for _, q := range preds[:i] {
			if sameInstance(p, q) {
				panic("sim: predictor " + p.Name() + " attached twice")
			}
		}
		l := lane{p: p, c: &e.counters[i]}
		l.va, _ = p.(ValueAware)
		l.bp, _ = p.(BlockPredictor)
		e.lanes[i] = l
		l.c.Predictor = p.Name()
	}
	return e
}

// sameInstance reports whether p and q are one predictor. Values of a
// type that cannot be compared are never the same instance.
func sameInstance(p, q predictor.IndirectPredictor) bool {
	return reflect.TypeOf(p).Comparable() && p == q
}

// ValueAware is implemented by predictors that consume the switch variable
// value carried by a record (the Case Block Table); the engine hands them
// the value before Predict, modelling a fetch-stage value forward.
type ValueAware interface {
	SetValue(v uint32)
}

// Prediction is the per-dispatch outcome ProcessPredicted reports for the
// engine's first predictor. The block engine's lane carries the narrower
// predictor.Prediction, from which Correct follows by comparing Target
// with the committed one.
type Prediction struct {
	Target    uint64 // predicted target; meaningful only when Predicted
	Predicted bool   // the predictor ventured a prediction
	Correct   bool   // Predicted and the target matched the committed one
}

// step is the paper's per-record protocol for one predictor, and the only
// place it is written out: on an MT indirect dispatch, forward the switch
// value, predict at the pre-update history and train; then observe the
// record. It returns the prediction (zero when the record is not a
// dispatch) and records no counters. Process, ProcessPredicted and the
// block engine's fallback all drive predictors through it; predictors
// share no state with each other or with the RAS, so stepping them one at
// a time is the same as interleaving their phases.
//
//ppm:hotpath per-record protocol step for one predictor
func step(p predictor.IndirectPredictor, va ValueAware, r trace.Record) (target uint64, ok bool) {
	if r.MTIndirect() {
		if va != nil {
			va.SetValue(r.Value)
		}
		target, ok = p.Predict(r.PC)
		p.Update(r.PC, r.Target)
	}
	p.Observe(r)
	return target, ok
}

// Process feeds one committed branch record to every predictor.
func (e *Engine) Process(r trace.Record) { e.ProcessPredicted(r) }

// ProcessPredicted feeds one record to every predictor, like Process, and
// also surfaces the first predictor's prediction outcome. dispatched is
// false (and the outcome zero) when the record is not an MT indirect
// dispatch, where no prediction is made. It is the record-at-a-time
// reference: the block engine's prediction lanes and counters are checked
// against the outcomes it reports, and the state differential checks
// replay through it.
//
//ppm:hotpath per-record engine step driving every predictor
func (e *Engine) ProcessPredicted(r trace.Record) (p Prediction, dispatched bool) {
	e.records++
	e.instrs += uint64(r.Gap) + 1
	e.ras.Process(r)
	dispatched = r.MTIndirect()
	lanes := e.lanes
	for i := range lanes {
		l := &lanes[i]
		target, ok := step(l.p, l.va, r)
		correct := ok && target == r.Target
		if dispatched {
			l.c.Record(correct, ok)
		}
		if i == 0 {
			p = Prediction{Target: target, Predicted: ok, Correct: correct}
		}
	}
	return p, dispatched
}

// ProcessAll feeds a slice of records.
func (e *Engine) ProcessAll(recs []trace.Record) {
	for _, r := range recs {
		e.Process(r)
	}
}

// Counters returns per-predictor accuracy counters, in predictor order.
func (e *Engine) Counters() []stats.Counters { return e.counters }

// CountersFor returns the counters of the named predictor, or false.
func (e *Engine) CountersFor(name string) (stats.Counters, bool) {
	for _, c := range e.counters {
		if c.Predictor == name {
			return c, true
		}
	}
	return stats.Counters{}, false
}

// RAS exposes the simulated return address stack.
func (e *Engine) RAS() *ras.Stack { return e.ras }

// Records returns the number of branch records processed.
func (e *Engine) Records() uint64 { return e.records }

// Instructions returns the reconstructed instruction count (branches plus
// their recorded gaps).
func (e *Engine) Instructions() uint64 { return e.instrs }

// Reset returns the engine and every resettable predictor to power-up
// state.
func (e *Engine) Reset() {
	for i, l := range e.lanes {
		if r, ok := l.p.(predictor.Resetter); ok {
			r.Reset()
		}
		e.counters[i] = stats.Counters{Predictor: l.p.Name()}
		e.lanes[i].preds = e.lanes[i].preds[:0]
	}
	e.ras.Reset()
	e.records, e.instrs = 0, 0
}

// Run is a convenience: build an engine, feed the records, return counters.
func Run(recs []trace.Record, preds ...predictor.IndirectPredictor) []stats.Counters {
	e := New(preds...)
	e.ProcessAll(recs)
	return e.Counters()
}
