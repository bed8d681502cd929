package check

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// DiffFamily replays recs through the optimized predictor for the given
// Figure 6/7 label and its naive reference in lock-step, following the
// simulator protocol (Predict and Update on MT indirect records, Observe on
// every record). It returns the first divergence, or nil if the two agreed
// on every prediction. An unknown label is an error. It is the check of
// the "diff" row of Hunts.
func DiffFamily(family string, recs []trace.Record) (*Divergence, error) {
	opt, ok := bench.NewPredictor(family)
	if !ok {
		return nil, fmt.Errorf("check: unknown predictor family %q", family)
	}
	ref, ok := NewReference(family)
	if !ok {
		return nil, fmt.Errorf("check: no reference for family %q", family)
	}
	return diverged(family, diffPair(opt, ref, recs)), nil
}

// diffPair replays recs through opt and ref in lock-step under the
// simulator protocol and returns the first disagreement, or nil.
func diffPair(opt, ref predictor.IndirectPredictor, recs []trace.Record) error {
	for i, r := range recs {
		if r.MTIndirect() {
			optTgt, optOK := opt.Predict(r.PC)
			refTgt, refOK := ref.Predict(r.PC)
			if optOK != refOK || (optOK && optTgt != refTgt) {
				return fmt.Errorf("diverged at step %d (%s): optimized=(%#x,%v) reference=(%#x,%v)",
					i, r, optTgt, optOK, refTgt, refOK)
			}
			opt.Update(r.PC, r.Target)
			ref.Update(r.PC, r.Target)
		}
		opt.Observe(r)
		ref.Observe(r)
	}
	return nil
}
