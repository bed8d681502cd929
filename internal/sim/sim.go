// Package sim is the trace-driven simulation engine: it drives committed
// branch records through a set of indirect-branch predictors using the
// protocol the paper's hardware implies — predict at fetch with the
// pre-update history, resolve and train, then advance path history — and
// accumulates the misprediction statistics of Section 5. A RAS is simulated
// alongside to account for returns, which are excluded from the indirect
// predictors' workload.
package sim

import (
	"io"

	"repro/internal/predictor"
	"repro/internal/ras"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Engine drives one record stream through any number of predictors.
type Engine struct {
	preds []predictor.IndirectPredictor
	// va is the ValueAware lane: va[i] is non-nil iff preds[i] consumes
	// the switch variable value. Precomputed at construction so Process
	// does not pay a type assertion per predictor per MT record.
	va []ValueAware
	// bp is the batch lane: bp[i] is non-nil iff preds[i] opts into
	// whole-block processing via BlockPredictor, letting ProcessBlock
	// skip the record-at-a-time fallback for it.
	bp       []BlockPredictor
	counters []stats.Counters
	ras      *ras.Stack
	records  uint64
	instrs   uint64
}

// New builds an engine over the given predictors. A 64-deep RAS is
// simulated for return accounting.
func New(preds ...predictor.IndirectPredictor) *Engine {
	e := &Engine{
		preds:    preds,
		va:       make([]ValueAware, len(preds)),
		bp:       make([]BlockPredictor, len(preds)),
		counters: make([]stats.Counters, len(preds)),
		ras:      ras.New(64),
	}
	for i, p := range preds {
		e.counters[i].Predictor = p.Name()
		if v, ok := p.(ValueAware); ok {
			e.va[i] = v
		}
		if b, ok := p.(BlockPredictor); ok {
			e.bp[i] = b
		}
	}
	return e
}

// ValueAware is implemented by predictors that consume the switch variable
// value carried by a record (the Case Block Table); the engine hands them
// the value before Predict, modelling a fetch-stage value forward.
type ValueAware interface {
	SetValue(v uint32)
}

// Prediction is the per-dispatch outcome ProcessPredicted reports for the
// engine's first predictor.
type Prediction struct {
	Target    uint64 // predicted target; meaningful only when Predicted
	Predicted bool   // the predictor ventured a prediction
	Correct   bool   // Predicted and the target matched the committed one
}

// step is the paper's per-record protocol for one predictor, and the only
// place it is written out: on an MT indirect dispatch, forward the switch
// value, predict at the pre-update history, record the outcome into c and
// train; then observe the record. It returns the prediction (zero when the
// record is not a dispatch). Process, ProcessPredicted and the block
// engine's fallback all drive predictors through it; predictors share no
// state with each other or with the RAS, so stepping them one at a time is
// the same as interleaving their phases.
//
//ppm:hotpath per-record protocol step for one predictor
func step(p predictor.IndirectPredictor, va ValueAware, c *stats.Counters, r trace.Record) (target uint64, ok bool) {
	if r.MTIndirect() {
		if va != nil {
			va.SetValue(r.Value)
		}
		target, ok = p.Predict(r.PC)
		c.Record(ok && target == r.Target, ok)
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
// dispatch, where no prediction is made. The live-session predict stream
// uses it to stream each prediction back while state mutates exactly as the
// batch engine would.
//
//ppm:hotpath per-record engine step driving every predictor
func (e *Engine) ProcessPredicted(r trace.Record) (p Prediction, dispatched bool) {
	e.records++
	e.instrs += uint64(r.Gap) + 1
	e.ras.Process(r)
	for i, pr := range e.preds {
		target, ok := step(pr, e.va[i], &e.counters[i], r)
		if i == 0 {
			p = Prediction{Target: target, Predicted: ok, Correct: ok && target == r.Target}
		}
	}
	return p, r.MTIndirect()
}

// ProcessAll feeds a slice of records.
func (e *Engine) ProcessAll(recs []trace.Record) {
	for _, r := range recs {
		e.Process(r)
	}
}

// ProcessReader streams records from a trace.Reader until EOF, decoding
// into one reused block and replaying it through the block engine. On a
// decode error the records before it have been processed.
func (e *Engine) ProcessReader(r *trace.Reader) error {
	var b trace.Block
	for {
		err := r.ReadBlock(&b)
		if err == io.EOF {
			return nil
		}
		e.ProcessBlock(&b)
		if err != nil {
			return err
		}
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
	for i, p := range e.preds {
		if r, ok := p.(predictor.Resetter); ok {
			r.Reset()
		}
		e.counters[i] = stats.Counters{Predictor: p.Name()}
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
