package sim

import (
	"repro/internal/predictor"
	"repro/internal/stats"
	"repro/internal/trace"
)

// BlockPredictor is the batch opt-in: a predictor that can replay a whole
// columnar block against itself, writing what it predicted at each MT
// dispatch into the engine's prediction lane. The engine routes blocks
// through this method when a predictor implements it, hoisting the three
// interface dispatches per record (Predict, Update, Observe) into one per
// block.
//
// preds has exactly len(b.MTIdx) entries. Implementations MUST be
// observationally equivalent to the record loop: for each record of the
// block in stream order — if the record is MT-indirect, predict at the
// pre-update history, write the prediction to preds[j] for the block's
// j-th MT dispatch (the record at b.MTIdx[j]), then train; then observe
// the record (history registers, BIU). Every entry of preds is written.
// Implementations record no counters: the engine tallies them from preds
// and the block's Target lane. A fast path whose only per-record work
// outside MT-indirect records is one history stream walks the index lane
// that stream names (history.Stream.Lane) and visits no other record. A
// predictor that consumes the switch value (ValueAware) must read it from
// the block's Value lane itself; the engine's per-record SetValue forward
// only runs on the fallback path.
type BlockPredictor interface {
	ProcessBlock(b *trace.Block, preds []predictor.Prediction)
}

// ProcessBlock feeds one columnar block to every predictor, whole-block
// per predictor: the RAS steps through the block once, then each predictor
// replays the block in turn through replay. Predictors share no state with
// each other or with the RAS, so this reordering relative to the
// record-interleaved Process loop leaves every per-predictor outcome and
// the RAS accounting bit-identical. Afterwards Predictions(i) holds
// predictor i's prediction at each of the block's MT dispatches.
//
//ppm:hotpath per-block engine step driving every predictor
func (e *Engine) ProcessBlock(b *trace.Block) {
	e.account(b)
	lanes := e.lanes
	for i := range lanes {
		l := &lanes[i]
		l.replay(b, l.c, &l.preds)
	}
}

// Predictions returns predictor i's prediction lane for the last block
// ProcessBlock (or ProcessBlocks) replayed: entry j is its prediction at
// the block's j-th MT dispatch, the record at MTIdx[j]. The lane belongs
// to the engine and the next block overwrites it; Process,
// ProcessPredicted and ProcessReader, whose predictor goroutines write
// lanes of their own, leave it alone.
func (e *Engine) Predictions(i int) []predictor.Prediction { return e.lanes[i].preds }

// account is the engine's own share of a block, apart from the
// predictors: the record and instruction totals and the RAS.
func (e *Engine) account(b *trace.Block) {
	n := uint64(len(b.Meta))
	e.records += n
	e.instrs += b.GapSum + n
	e.ras.ProcessBlock(b)
}

// replay is the per-predictor body of the block engine, shared by
// ProcessBlock and ProcessReader's predictor goroutines: the predictor's
// batch fast path when it opts in via BlockPredictor, otherwise the
// per-record step over records reassembled from the lanes (the oracle
// stays there on purpose). Either writes the prediction lane *out, which
// tally then folds into c. The lane is the caller's, so each goroutine
// replaying a predictor writes its own.
func (l *lane) replay(b *trace.Block, c *stats.Counters, out *[]predictor.Prediction) {
	n := len(b.MTIdx)
	if cap(*out) < n {
		grow(out, n, cap(b.Meta)) // the lane grows to its largest block's dispatch count, then is reused
	}
	preds := (*out)[:n]
	*out = preds
	if l.bp != nil {
		l.bp.ProcessBlock(b, preds)
	} else {
		l.stepBlock(b, preds)
	}
	tally(c, preds, b)
}

// grow reallocates a prediction lane for a block of n MT dispatches and
// capacity blockCap: doubling, but never past blockCap, so a lane never
// outgrows the largest block it has replayed.
//
//ppm:coldpath lane growth, a few times per lane at most
//go:noinline
func grow(out *[]predictor.Prediction, n, blockCap int) {
	*out = make([]predictor.Prediction, n, min(blockCap, max(n, 2*cap(*out))))
}

// stepBlock is the fallback replay for a predictor without a block path:
// the per-record step over records reassembled from the block's lanes,
// writing each dispatch's prediction to preds.
func (l *lane) stepBlock(b *trace.Block, preds []predictor.Prediction) {
	j := 0
	for k := 0; k < b.Len(); k++ {
		r := b.Record(k)
		target, ok := step(l.p, l.va, r)
		if r.MTIndirect() {
			preds[j] = predictor.Prediction{Target: target, Predicted: ok}
			j++
		}
	}
}

// tally folds one block's prediction lane into c: a lookup per MT
// dispatch, correct when the prediction names the committed target in the
// block's Target lane, abstained when there was none, wrong otherwise.
//
//ppm:hotpath per-block counter tally over a prediction lane
func tally(c *stats.Counters, preds []predictor.Prediction, b *trace.Block) {
	mt := b.MTIdx[:len(preds)]
	tgts := b.Target
	var correct, abstained uint64
	for j, p := range preds {
		switch {
		case !p.Predicted:
			abstained++
		case p.Target == tgts[mt[j]]:
			correct++
		}
	}
	n := uint64(len(preds))
	c.Lookups += n
	c.Correct += correct
	c.Wrong += n - correct - abstained
	c.NoPrediction += abstained
}

// ProcessBlocks feeds a pre-decoded block sequence, block by block. Each
// prediction lane is first sized to the sequence's largest dispatch
// count, so a grid cell, which builds a fresh engine, allocates its lanes
// once instead of regrowing them.
func (e *Engine) ProcessBlocks(blks []trace.Block) {
	n := 0
	for i := range blks {
		n = max(n, len(blks[i].MTIdx))
	}
	for i := range e.lanes {
		if l := &e.lanes[i]; cap(l.preds) < n {
			l.preds = make([]predictor.Prediction, 0, n)
		}
	}
	for i := range blks {
		e.ProcessBlock(&blks[i])
	}
}
