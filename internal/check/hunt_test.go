package check

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestDifferentialQuick runs every Hunts row over every family it covers,
// at a bounded set of randomized traces: structured workloads and raw
// adversarial record streams. Subtests are family/kind; the families run
// in parallel.
func TestDifferentialQuick(t *testing.T) {
	var fams []string
	for _, h := range Hunts {
		for _, fam := range h.Families {
			if !slices.Contains(fams, fam) {
				fams = append(fams, fam)
			}
		}
	}
	for _, fam := range fams {
		t.Run(fam, func(t *testing.T) {
			t.Parallel()
			for _, h := range Hunts {
				if !slices.Contains(h.Families, fam) {
					continue
				}
				t.Run(h.Kind, func(t *testing.T) {
					found, err := h.Search(fam, quickSeeds, quickEvents)
					if err != nil {
						t.Fatal(err)
					}
					for _, f := range found {
						t.Errorf("%s seed %d: %s\nminimized to %d records: %v", f.Stream, f.Seed, f.Divergence, len(f.Recs), f.Recs)
					}
				})
			}
		})
	}
}

// TestHuntsRoundTripCorpus writes seeds of every Hunts kind, loads them
// back and replays them: a short trace replays clean through every family
// of the row, and a seed naming an unknown family fails with the row's own
// error for that family.
func TestHuntsRoundTripCorpus(t *testing.T) {
	recs := RandomTrace(3, 120)
	for _, h := range Hunts {
		t.Run(h.Kind, func(t *testing.T) {
			dir := t.TempDir()
			clean := Seed{Name: h.Kind + "-every-family", Kind: h.Kind}
			unknown := h.CorpusSeed(Finding{Divergence: &Divergence{Family: "No-Such"}, Seed: 3})
			if want := fmt.Sprintf("%s-no-such-seed3", h.Kind); unknown.Name != want {
				t.Fatalf("seed name %q, want %q", unknown.Name, want)
			}
			for _, s := range []Seed{clean, unknown} {
				if err := WriteSeed(dir, s, recs); err != nil {
					t.Fatal(err)
				}
			}
			seeds, err := LoadSeeds(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(seeds) != 2 {
				t.Fatalf("loaded %d seeds, want 2", len(seeds))
			}
			_, rowErr := h.Check(unknown.Family, recs)
			if rowErr == nil {
				t.Fatalf("row accepted family %q", unknown.Family)
			}
			for _, e := range seeds {
				if e.Seed.Kind != h.Kind || len(e.Recs) != len(recs) {
					t.Fatalf("seed %s: kind %q with %d records, want %q with %d", e.Seed.Name, e.Seed.Kind, len(e.Recs), h.Kind, len(recs))
				}
				err := ReplaySeed(e)
				switch e.Seed.Name {
				case clean.Name:
					if err != nil {
						t.Errorf("clean seed: %v", err)
					}
				case unknown.Name:
					if err == nil || !strings.Contains(err.Error(), rowErr.Error()) {
						t.Errorf("unknown-family seed: got %v, want %v", err, rowErr)
					}
				}
			}
		})
	}
}
