package check

import (
	"bytes"
	"fmt"

	"repro/internal/sim"
	"repro/internal/state"
	"repro/internal/trace"
)

// The snapshot suite holds internal/state to the live-session contract:
// cutting a trace at any block boundary, serializing the engine, restoring
// the bytes into a brand-new engine (through pooled storage, the way the
// serving layer does) and continuing must be indistinguishable from never
// stopping — per-dispatch predictions, accounting counters and the final
// serialized bytes all included.

// statePool is the shared pool the differential snapshots through, mirroring
// the serving layer's pooled save/restore path.
var statePool = state.NewPool()

// diffState replays recs through a single predictor family twice: once
// uncut, and once snapshotting at every cut boundary — serialize through a
// pooled writer, restore into a brand-new engine through a pooled reader,
// and continue on the restored engine. Chaining the restore at every
// boundary makes one pass cover every cut point at once. Cut cadences come
// from blockDiffCaps, so shrunken traces still cross many boundaries.
// Returns the first divergence, or nil if every cadence agreed. An unknown
// label is an error. It is the check of the "state" row of Hunts.
func diffState(family string, recs []trace.Record) (*Divergence, error) {
	p, ok := newFamily(family)
	if !ok {
		return nil, fmt.Errorf("check: unknown predictor family %q", family)
	}
	ref := sim.New(p)
	refPreds := make([]sim.Prediction, 0, len(recs))
	for _, r := range recs {
		if pr, dispatched := ref.ProcessPredicted(r); dispatched {
			refPreds = append(refPreds, pr)
		}
	}
	refFinal := state.SaveBytes(ref)

	for _, cut := range blockDiffCaps {
		if err := chainMatches(family, recs, cut, refPreds, refFinal, ref); err != nil {
			return diverged(family, fmt.Errorf("snapshot/restore chain (cut every %d records): %w", cut, err)), nil
		}
	}
	return nil, nil
}

// chainMatches runs the chained snapshot/restore replay at one cut cadence
// and compares it against the uncut reference run.
func chainMatches(family string, recs []trace.Record, cut int, refPreds []sim.Prediction, refFinal []byte, ref *sim.Engine) error {
	p, _ := newFamily(family)
	live := sim.New(p)
	w := statePool.Writer()
	defer statePool.PutWriter(w)
	r := statePool.Reader()
	defer statePool.PutReader(r)
	next := 0
	for i, rec := range recs {
		if i > 0 && i%cut == 0 {
			// Save aliases the pooled writer's buffer; the immediate Load
			// consumes it before the next boundary reuses the writer.
			data := state.Save(live, w)
			np, _ := newFamily(family)
			restored := sim.New(np)
			if err := state.Load(restored, r, data); err != nil {
				return fmt.Errorf("restore at record %d: %v", i, err)
			}
			live = restored
		}
		pr, dispatched := live.ProcessPredicted(rec)
		if !dispatched {
			continue
		}
		if next >= len(refPreds) {
			return fmt.Errorf("record %d: chained run dispatched more predictions than the uncut run", i)
		}
		if pr != refPreds[next] {
			return fmt.Errorf("record %d (dispatch %d): chained %+v vs uncut %+v", i, next, pr, refPreds[next])
		}
		next++
	}
	if next != len(refPreds) {
		return fmt.Errorf("chained run made %d predictions, uncut run made %d", next, len(refPreds))
	}
	if err := enginesMatch(ref, live); err != nil {
		return err
	}
	if !bytes.Equal(state.SaveBytes(live), refFinal) {
		return fmt.Errorf("final snapshots differ")
	}
	return nil
}
