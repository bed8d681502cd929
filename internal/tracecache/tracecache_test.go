package tracecache

import (
	"sync"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// testConfig builds a small deterministic run; seed variations produce
// distinct fingerprints and distinct record streams.
func testConfig(seed uint64, events int) workload.Config {
	return workload.Config{
		Name: "cachetest", Seed: seed, Events: events,
		Sites: []workload.SiteSpec{
			{Label: "a", Class: trace.IndirectJmp, NumTargets: 4,
				Behavior: workload.Uniform{}, Weight: 1},
			{Label: "b", Class: trace.IndirectJsr, NumTargets: 2,
				Behavior: workload.Uniform{}, Weight: 1},
		},
		CondPerEvent: 2,
	}
}

func TestGetCachesAndReturnsSharedSlice(t *testing.T) {
	c := New(0)
	cfg := testConfig(1, 500)
	r1, s1 := c.Get(cfg)
	r2, s2 := c.Get(cfg)
	if &r1[0] != &r2[0] {
		t.Error("second Get returned a different backing array")
	}
	if s1.Records != s2.Records || s1.Instructions != s2.Instructions {
		t.Error("summaries differ between Gets")
	}
	st := c.Stats()
	if st.Generated != 1 || st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %v, want 1 generation, 1 miss, 1 hit", st)
	}
	wantRecs, wantSum := cfg.Records()
	if uint64(len(r1)) != wantSum.Records || len(r1) != len(wantRecs) {
		t.Errorf("cached %d records, direct generation yields %d", len(r1), len(wantRecs))
	}
	for i := range wantRecs {
		if r1[i] != wantRecs[i] {
			t.Fatalf("cached record %d differs from direct generation", i)
		}
	}
}

func TestFingerprintSeparatesConfigs(t *testing.T) {
	base := testConfig(1, 500)
	variants := []workload.Config{testConfig(2, 500), testConfig(1, 600)}
	other := base
	other.Sites = append([]workload.SiteSpec(nil), base.Sites...)
	other.Sites[0].NumTargets = 8
	variants = append(variants, other)
	seen := map[string]bool{Fingerprint(base): true}
	for i, v := range variants {
		fp := Fingerprint(v)
		if seen[fp] {
			t.Errorf("variant %d shares a fingerprint with another config", i)
		}
		seen[fp] = true
	}
	if Fingerprint(base) != Fingerprint(testConfig(1, 500)) {
		t.Error("identical configs fingerprint apart")
	}
}

func TestBudgetEvictsLRU(t *testing.T) {
	cfgA, cfgB, cfgC := testConfig(1, 400), testConfig(2, 400), testConfig(3, 400)
	recsA, _ := New(0).Get(cfgA)
	perEntry := int64(cap(recsA)) * recordBytes
	// Room for roughly two entries: inserting a third must evict the LRU.
	c := New(2*perEntry + perEntry/2)
	c.Get(cfgA)
	c.Get(cfgB)
	c.Get(cfgA) // bump A to MRU; B is now the eviction candidate
	c.Get(cfgC)
	st := c.Stats()
	if st.Evicted == 0 {
		t.Fatalf("no eviction under budget %d with 3 entries of ~%d bytes", 2*perEntry+perEntry/2, perEntry)
	}
	c.Get(cfgA)
	if got := c.Stats().Hits - st.Hits; got != 1 {
		t.Errorf("A was evicted instead of LRU B (hits delta %d)", got)
	}
	before := c.Stats()
	c.Get(cfgB)
	if c.Stats().Generated != before.Generated+1 {
		t.Error("evicted B was not regenerated on demand")
	}
}

func TestConcurrentSameKeyGeneratesOnce(t *testing.T) {
	c := New(0)
	cfg := testConfig(7, 400)
	const goroutines = 16
	var wg sync.WaitGroup
	recs := make([][]trace.Record, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			recs[g], _ = c.Get(cfg)
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Generated != 1 {
		t.Errorf("%d generations for one key under concurrency, want 1", st.Generated)
	}
	for g := 1; g < goroutines; g++ {
		if &recs[g][0] != &recs[0][0] {
			t.Errorf("goroutine %d got a private copy", g)
		}
	}
}

// TestConcurrentGetEvict hammers a tight-budget cache from many goroutines
// so readers, inserts and evictions interleave; run under -race this is the
// scheduler-safety proof for the shared cache. Every returned slice must
// match the deterministic reference generation bit for bit.
func TestConcurrentGetEvict(t *testing.T) {
	const nCfg = 6
	cfgs := make([]workload.Config, nCfg)
	want := make([][]trace.Record, nCfg)
	for i := range cfgs {
		cfgs[i] = testConfig(uint64(i+1), 300)
		want[i], _ = cfgs[i].Records()
	}
	// Budget fits only ~2 of the 6 working sets: constant eviction churn.
	perEntry := int64(len(want[0])) * recordBytes
	c := New(2 * perEntry)

	const goroutines = 8
	const iters = 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (g + i) % nCfg
				recs, sum := c.Get(cfgs[k])
				if len(recs) != len(want[k]) {
					t.Errorf("cfg %d: got %d records, want %d", k, len(recs), len(want[k]))
					return
				}
				if sum.Records != uint64(len(want[k])) {
					t.Errorf("cfg %d: summary records %d, want %d", k, sum.Records, len(want[k]))
					return
				}
				if recs[0] != want[k][0] || recs[len(recs)-1] != want[k][len(recs)-1] {
					t.Errorf("cfg %d: record content diverged", k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Evicted == 0 {
		t.Error("hammer produced no evictions; budget not exercising LRU churn")
	}
	if st.Hits+st.Misses != goroutines*iters {
		t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, goroutines*iters)
	}
	if st.Bytes < 0 || (c.budget > 0 && st.Bytes > c.budget+perEntry) {
		t.Errorf("resident bytes %d drifted outside budget %d", st.Bytes, c.budget)
	}
}

// TestOversizeEntryServedWithoutResidency pins the oversized-entry fix: a
// trace bigger than the entire budget used to join the LRU list, and the
// accounting pass then flushed every smaller resident entry before evicting
// the newcomer itself on the next insert — the small entries paid for a
// resident that could never help anyone. An oversized trace must be served
// to its callers (correct data, no error) without ever becoming resident or
// disturbing the entries that do fit.
func TestOversizeEntryServedWithoutResidency(t *testing.T) {
	small := testConfig(1, 100)
	big := testConfig(2, 4000)
	smallRecs, _ := New(0).Get(small)
	bigRecs, _ := New(0).Get(big)
	smallBytes := int64(cap(smallRecs)) * recordBytes
	bigBytes := int64(cap(bigRecs)) * recordBytes
	if bigBytes <= 2*smallBytes {
		t.Fatalf("test setup: big trace (%d bytes) not big enough vs small (%d)", bigBytes, smallBytes)
	}

	// Budget fits a few small entries but not the big one.
	c := New(3 * smallBytes)
	c.Get(small)
	want, wantSum := big.Records()

	for pass := 0; pass < 2; pass++ {
		got, sum := c.Get(big)
		if len(got) != len(want) || sum.Records != wantSum.Records {
			t.Fatalf("pass %d: oversized trace served wrong: %d records, want %d", pass, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pass %d: oversized record %d differs", pass, i)
			}
		}
	}

	st := c.Stats()
	if st.Oversize != 2 {
		t.Errorf("oversize count %d, want 2 (one per Get of the big trace)", st.Oversize)
	}
	if st.Evicted != 0 {
		t.Errorf("oversized trace evicted %d resident entries; must not touch them", st.Evicted)
	}
	if st.Entries != 1 || st.Bytes != smallBytes {
		t.Errorf("residency after oversized Gets: %d entries / %d bytes, want the small entry alone (%d bytes)", st.Entries, st.Bytes, smallBytes)
	}
	// The small entry must still be a hit — it was never flushed.
	hitsBefore := st.Hits
	c.Get(small)
	if got := c.Stats().Hits - hitsBefore; got != 1 {
		t.Errorf("small entry lost from cache (hits delta %d, want 1)", got)
	}
}
