// Package predictor defines the interface every indirect-branch target
// predictor in this repository implements, plus the Branch Identification
// Unit (BIU) shared by the designs in Section 4 of the paper.
//
// Simulation protocol (enforced by internal/sim): for every committed branch
// record, the engine first calls Predict+Update if the record is a
// multi-target indirect branch, then calls Observe with the record so the
// predictor can advance its path history registers. Predictors must
// therefore train their tables in Update using the history state that
// existed at prediction time, and only shift new targets into their
// histories in Observe — the same ordering the hardware would see.
package predictor

import "repro/internal/trace"

// IndirectPredictor predicts the targets of multi-target indirect branches.
// Implementations are not safe for concurrent use; each simulated core owns
// its own instance.
type IndirectPredictor interface {
	// Name identifies the configuration (e.g. "PPM-hyb", "BTB2b").
	Name() string
	// Predict returns the predicted target for the indirect branch at pc,
	// or ok=false when the predictor has no prediction (counted as a
	// misprediction by the harness, as in the paper).
	Predict(pc uint64) (target uint64, ok bool)
	// Update resolves the most recent Predict call for pc with the actual
	// target and trains the predictor. Update is called exactly once per
	// Predict, with the same pc.
	Update(pc, target uint64)
	// Observe advances path history and any bookkeeping with a committed
	// branch record of any class. For a record that was just predicted,
	// Observe is called after Update.
	Observe(r trace.Record)
}

// Prediction is one predictor's answer at one multi-target indirect
// dispatch: the target Predict returned and whether it ventured one. The
// block engine's prediction lane holds one per dispatch of a block, in
// trace.Block.MTIdx order.
type Prediction struct {
	Target    uint64 // predicted target; meaningful only when Predicted
	Predicted bool   // Predict returned ok
}

// Resetter is implemented by predictors that can return to power-up state.
type Resetter interface{ Reset() }

// Sized is implemented by predictors that can report their storage budget.
type Sized interface {
	// Entries returns the total number of target-holding table entries,
	// the budget metric the paper holds at 2K for every design.
	Entries() int
}

// Costed is implemented by predictors that can report their storage cost
// in bits, under the repository's uniform accounting convention: stored
// targets cost 30 bits (word-aligned 32-bit address), valid bits 1,
// up/down counters 2, tags their actual width, history registers their
// register width. The BIU is excluded (all designs share branch
// identification, and the paper models it as unbounded).
type Costed interface {
	Bits() int
}
