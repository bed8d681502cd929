package bench

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/btb"
	"repro/internal/cascade"
	"repro/internal/cbt"
	"repro/internal/condbr"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/ittage"
	"repro/internal/twolevel"
)

// TestConstructorsRejectNonPowerOfTwo holds every table-size guard: the
// tables index by masking with size-1, which aliases unless the size is a
// power of two, so each constructor must panic on any other size with a
// "pkg: ... power of two, got N" message naming the size it was given.
func TestConstructorsRejectNonPowerOfTwo(t *testing.T) {
	gap := func(entries, phts int) twolevel.GApConfig {
		return twolevel.GApConfig{Entries: entries, PHTs: phts, Assoc: 1, PathLength: 1,
			BitsPerTarget: 2, HistoryStream: history.IndirectBranches}
	}
	dpath := func(selectors int) twolevel.DualPathConfig {
		return twolevel.DualPathConfig{Selectors: selectors, Short: gap(1024, 1), Long: gap(1024, 1)}
	}
	itt := func(base, bank int) ittage.Config {
		return ittage.Config{BaseEntries: base, Banks: 4, BankEntries: bank, TagBits: 10, MinHist: 4,
			MaxHist: 64, BitsPerItem: 2, ResetPeriod: 2048, Stream: history.MTIndirectBranches}
	}
	const bad = 6
	cases := []struct {
		name, pkg string
		build     func()
	}{
		{"ittage.BaseEntries", "ittage", func() { ittage.New(itt(bad, 256)) }},
		{"ittage.BankEntries", "ittage", func() { ittage.New(itt(1024, bad)) }},
		{"condbr.NewBimodal", "condbr", func() { condbr.NewBimodal(bad) }},
		{"cbt.Entries", "cbt", func() { cbt.New(cbt.Config{Entries: bad, Availability: 0.5}) }},
		{"twolevel.GApConfig.Entries", "twolevel", func() { twolevel.NewGAp(gap(bad, 2)) }},
		{"twolevel.GApConfig.PHTs", "twolevel", func() { twolevel.NewGAp(gap(2048, bad)) }},
		{"twolevel.NewPHT", "twolevel", func() { twolevel.NewPHT(bad, 1, false) }},
		{"twolevel.DualPathConfig.Selectors", "twolevel", func() { twolevel.NewDualPath(dpath(bad)) }},
		{"twolevel.TargetCacheConfig.Entries", "twolevel", func() {
			twolevel.NewTargetCache(twolevel.TargetCacheConfig{Entries: bad, HistoryBits: 11,
				BitsPerTarget: 2, HistoryStream: history.IndirectBranches})
		}},
		{"btb.New", "btb", func() { btb.New(bad) }},
		{"core.NewFiltered", "core", func() { core.NewFiltered(core.PaperHyb(), bad) }},
		{"cascade.FilterEntries", "cascade", func() { cascade.New(cascade.Config{FilterEntries: bad, Main: dpath(1024)}) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			msg := panicMessage(c.build)
			if want := fmt.Sprintf("power of two, got %d", bad); !strings.HasPrefix(msg, c.pkg+": ") || !strings.HasSuffix(msg, want) {
				t.Fatalf("panic %q, want \"%s: ... %s\"", msg, c.pkg, want)
			}
		})
	}
}

// panicMessage runs build and returns what it panicked with, or "".
func panicMessage(build func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	build()
	return ""
}
