package main

import (
	"reflect"
	"testing"

	"repro/internal/check"
)

// TestHuntFamilies pins -families as an intersection: each row runs only
// the listed families it covers, and a name no row covers is rejected.
func TestHuntFamilies(t *testing.T) {
	kinds := map[string]int{}
	for i, h := range check.Hunts {
		kinds[h.Kind] = i
	}
	for _, tc := range []struct {
		list string
		want map[string][]string // by row kind; absent means the row is skipped
	}{
		// CBT has no naive reference, so only the engine rows cover it.
		{"CBT", map[string][]string{"blocks": {"CBT"}, "state": {"CBT"}}},
		{"PPM-multi,BTB", map[string][]string{"diff": {"BTB"}, "blocks": {"PPM-multi", "BTB"}, "state": {"PPM-multi", "BTB"}}},
		// make check-ittage: every row covers both.
		{"ITTAGE,Cascade-u", map[string][]string{"diff": {"ITTAGE", "Cascade-u"}, "blocks": {"ITTAGE", "Cascade-u"}, "state": {"ITTAGE", "Cascade-u"}}},
	} {
		got, err := huntFamilies(tc.list)
		if err != nil {
			t.Fatalf("%s: %v", tc.list, err)
		}
		for kind, i := range kinds {
			if !reflect.DeepEqual(got[i], tc.want[kind]) {
				t.Errorf("-families %s: %s row runs %v, want %v", tc.list, kind, got[i], tc.want[kind])
			}
		}
	}

	all, err := huntFamilies("")
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range check.Hunts {
		if !reflect.DeepEqual(all[i], h.Families) {
			t.Errorf("no -families: %s row runs %v, want its own %v", h.Kind, all[i], h.Families)
		}
	}

	for _, list := range []string{"No-Such", "CBT,No-Such"} {
		if _, err := huntFamilies(list); err == nil {
			t.Errorf("-families %s accepted", list)
		}
	}
}
