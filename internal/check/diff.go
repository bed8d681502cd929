package check

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// Divergence records the first step at which the optimized predictor and
// its naive reference disagreed while replaying the same trace.
type Divergence struct {
	Family string
	// Step is the index into the replayed record slice at which the
	// predictions differed (an MT indirect record, since only those are
	// predicted).
	Step   int
	Record trace.Record

	OptTarget uint64
	OptOK     bool
	RefTarget uint64
	RefOK     bool
}

// String formats the divergence for bug reports.
func (d *Divergence) String() string {
	return fmt.Sprintf("%s diverged at step %d (%s): optimized=(%#x,%v) reference=(%#x,%v)",
		d.Family, d.Step, d.Record, d.OptTarget, d.OptOK, d.RefTarget, d.RefOK)
}

// DiffFamily replays recs through the optimized predictor for the given
// Figure 6/7 label and its naive reference in lock-step, following the
// simulator protocol (Predict and Update on MT indirect records, Observe on
// every record). It returns the first divergence, or nil if the two agreed
// on every prediction. An unknown label is an error.
func DiffFamily(family string, recs []trace.Record) (*Divergence, error) {
	opt, ok := bench.NewPredictor(family)
	if !ok {
		return nil, fmt.Errorf("check: unknown predictor family %q", family)
	}
	ref, ok := NewReference(family)
	if !ok {
		return nil, fmt.Errorf("check: no reference for family %q", family)
	}
	return diffPair(family, opt, ref, recs), nil
}

// diffPair replays recs through opt and ref in lock-step under the
// simulator protocol and returns the first divergence, or nil.
func diffPair(family string, opt, ref predictor.IndirectPredictor, recs []trace.Record) *Divergence {
	for i, r := range recs {
		if r.MTIndirect() {
			optTgt, optOK := opt.Predict(r.PC)
			refTgt, refOK := ref.Predict(r.PC)
			if optOK != refOK || (optOK && optTgt != refTgt) {
				return &Divergence{
					Family:    family,
					Step:      i,
					Record:    r,
					OptTarget: optTgt,
					OptOK:     optOK,
					RefTarget: refTgt,
					RefOK:     refOK,
				}
			}
			opt.Update(r.PC, r.Target)
			ref.Update(r.PC, r.Target)
		}
		opt.Observe(r)
		ref.Observe(r)
	}
	return nil
}

// Diverges reports whether replaying recs produces a divergence for the
// family — the predicate the shrinker minimizes against.
func Diverges(family string, recs []trace.Record) bool {
	d, err := DiffFamily(family, recs)
	return err == nil && d != nil
}
