package check

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/trace"
)

// Hunt is one lock-step differential of the harness: a check that replays
// a trace through one predictor family two ways that must agree, and the
// families it covers. cmd/ppmcheck runs every row over randomized traces
// and writes each minimized divergence into the corpus under the row's
// Kind; ReplaySeed replays a seed of that kind through the same row.
type Hunt struct {
	// Kind is the corpus kind of the row's seeds, and their name prefix
	// (<kind>-<family>-seed<k>).
	Kind string
	// Label names the row in ppmcheck's report.
	Label string
	// Families lists the family labels the row covers.
	Families []string
	// Check replays recs through family both ways and returns the first
	// disagreement, or nil. An unknown family is an error.
	Check func(family string, recs []trace.Record) (*Divergence, error)
}

// Hunts is the harness's table of lock-step differentials: each family
// against its naive reference, the block engine against the record engine
// at every probed block capacity, and snapshot/restore at every probed cut
// cadence against the uncut run. A new differential oracle is a new row.
var Hunts = []Hunt{
	{Kind: "diff", Label: "differential", Families: Families(), Check: DiffFamily},
	{Kind: "blocks", Label: "blocks-vs-records", Families: engineFamilies(), Check: diffBlocks},
	{Kind: "state", Label: "snapshot-restore", Families: engineFamilies(), Check: diffState},
}

// Divergence records the first disagreement a hunt found between the two
// replays of one family over the same trace.
type Divergence struct {
	Family string
	Detail string
}

// String formats the divergence for bug reports.
func (d *Divergence) String() string { return d.Family + ": " + d.Detail }

// diverged reports a comparison's error as the family's divergence; a nil
// error is no divergence.
func diverged(family string, err error) *Divergence {
	if err == nil {
		return nil
	}
	return &Divergence{Family: family, Detail: err.Error()}
}

// Diverges reports whether replaying recs through family diverges — the
// predicate Search shrinks a failing trace against.
func (h Hunt) Diverges(family string, recs []trace.Record) bool {
	d, err := h.Check(family, recs)
	return err == nil && d != nil
}

// Finding is one divergence Search found on a randomized stream.
type Finding struct {
	*Divergence
	// Stream names the generator: "workload" (RandomTrace) or "raw"
	// (RandomRecords).
	Stream string
	Seed   uint64
	// Recs is the stream shrunk to a trace on which the row still
	// diverges.
	Recs []trace.Record
}

// Search replays family through the row over the workload and raw streams
// of seeds 1 to seeds, events records each, and returns every divergence,
// each with its stream shrunk. An unknown family is an error.
func (h Hunt) Search(family string, seeds, events int) ([]Finding, error) {
	var found []Finding
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		for _, s := range streams(seed, events) {
			d, err := h.Check(family, s.recs)
			if err != nil {
				return nil, err
			}
			if d != nil {
				min := Shrink(s.recs, func(r []trace.Record) bool { return h.Diverges(family, r) })
				found = append(found, Finding{Divergence: d, Stream: s.kind, Seed: seed, Recs: min})
			}
		}
	}
	return found, nil
}

// CorpusSeed is the descriptor that pins f in the corpus.
func (h Hunt) CorpusSeed(f Finding) Seed {
	return Seed{
		Name:   fmt.Sprintf("%s-%s-seed%d", h.Kind, strings.ToLower(f.Family), f.Seed),
		Family: f.Family,
		Kind:   h.Kind,
		Note:   fmt.Sprintf("minimized %s divergence found by ppmcheck (%s stream, seed %d)", h.Label, f.Stream, f.Seed),
	}
}

// replay runs recs through family, or through every family of the row
// when family is empty, and returns the first divergence as an error.
func (h Hunt) replay(family string, recs []trace.Record) error {
	fams := h.Families
	if family != "" {
		fams = []string{family}
	}
	for _, fam := range fams {
		d, err := h.Check(fam, recs)
		if err != nil {
			return err
		}
		if d != nil {
			return errors.New(d.String())
		}
	}
	return nil
}

// huntOf returns the row of the given corpus kind.
func huntOf(kind string) (Hunt, bool) {
	for _, h := range Hunts {
		if h.Kind == kind {
			return h, true
		}
	}
	return Hunt{}, false
}

// stream is one randomized hunt input.
type stream struct {
	kind string
	recs []trace.Record
}

// streams returns a seed's two hunt inputs: a structured workload trace
// and a raw adversarial record stream.
func streams(seed uint64, events int) []stream {
	return []stream{
		{"workload", RandomTrace(seed, events)},
		{"raw", RandomRecords(seed, events)},
	}
}
