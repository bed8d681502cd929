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

// entryBytes is what the cache charges for cfg's trace.
func entryBytes(cfg workload.Config) int64 {
	blks, _ := cfg.Blocks()
	return trace.BlocksBytes(blks)
}

// sameRecords fails t unless got equals the reference generation want.
func sameRecords(t *testing.T, what string, got, want []trace.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, direct generation yields %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d differs from direct generation", what, i)
		}
	}
}

func TestGetCachesAndReturnsSharedSlice(t *testing.T) {
	c := New(0)
	cfg := testConfig(1, 500)
	b1, s1 := c.GetBlocks(cfg)
	b2, s2 := c.GetBlocks(cfg)
	if &b1[0] != &b2[0] || &b1[0].PC[0] != &b2[0].PC[0] {
		t.Error("second GetBlocks returned a different backing array")
	}
	if s1.Records != s2.Records || s1.Instructions != s2.Instructions {
		t.Error("summaries differ between calls")
	}
	st := c.Stats()
	if st.Generated != 1 || st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %v, want 1 generation, 1 miss, 1 hit", st)
	}
	if want := trace.BlocksBytes(b1); st.Bytes != want {
		t.Errorf("Bytes = %d, want the columnar model's %d", st.Bytes, want)
	}
	wantRecs, wantSum := cfg.Records()
	if s1.Records != wantSum.Records {
		t.Errorf("cached summary counts %d records, direct generation %d", s1.Records, wantSum.Records)
	}
	sameRecords(t, "cached blocks", trace.BlocksRecords(b1), wantRecs)

	// Get is a record view over the same entry: a hit, a fresh slice per
	// call, and no record storage added to the ledger.
	r1, _ := c.Get(cfg)
	r2, _ := c.Get(cfg)
	sameRecords(t, "Get", r1, wantRecs)
	if &r1[0] == &r2[0] {
		t.Error("Get returned a shared record slice; it must flatten per call")
	}
	after := c.Stats()
	if after.Generated != 1 || after.Hits != 3 {
		t.Errorf("stats after Get = %v, want 1 generation, 3 hits", after)
	}
	if after.Bytes != st.Bytes || after.Entries != 1 {
		t.Errorf("Get changed residency: %d entries / %d bytes, want 1 / %d", after.Entries, after.Bytes, st.Bytes)
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
	perEntry := entryBytes(cfgA)
	// Room for roughly two entries: inserting a third must evict the LRU.
	c := New(2*perEntry + perEntry/2)
	c.GetBlocks(cfgA)
	c.GetBlocks(cfgB)
	c.GetBlocks(cfgA) // bump A to MRU; B is now the eviction candidate
	c.GetBlocks(cfgC)
	st := c.Stats()
	if st.Evicted == 0 {
		t.Fatalf("no eviction under budget %d with 3 entries of ~%d bytes", 2*perEntry+perEntry/2, perEntry)
	}
	c.GetBlocks(cfgA)
	if got := c.Stats().Hits - st.Hits; got != 1 {
		t.Errorf("A was evicted instead of LRU B (hits delta %d)", got)
	}
	before := c.Stats()
	c.GetBlocks(cfgB)
	if c.Stats().Generated != before.Generated+1 {
		t.Error("evicted B was not regenerated on demand")
	}
}

// TestGetBlocksSharesConversionAndAccountsColumnarBytes pins that a record
// view taken first (Get) and the block calls after it share one generated
// entry, and that the ledger charges only its columnar footprint.
func TestGetBlocksSharesConversionAndAccountsColumnarBytes(t *testing.T) {
	c := New(0)
	cfg := testConfig(1, 500)
	recs, _ := c.Get(cfg)

	b1, s1 := c.GetBlocks(cfg)
	b2, s2 := c.GetBlocks(cfg)
	if &b1[0] != &b2[0] {
		t.Error("second GetBlocks returned a different block slice")
	}
	if s1.Records != s2.Records {
		t.Error("summaries differ between GetBlocks calls")
	}

	// The blocks decode to exactly the records Get returned.
	sameRecords(t, "blocks after Get", trace.BlocksRecords(b1), recs)

	// One generation, and the ledger holds the columnar model's block
	// bytes and nothing record-shaped.
	st := c.Stats()
	if st.Generated != 1 {
		t.Errorf("generated %d traces, want 1 (GetBlocks reuses the entry Get created)", st.Generated)
	}
	if want := trace.BlocksBytes(b1); st.Bytes != want {
		t.Errorf("Bytes = %d, want columnar model %d", st.Bytes, want)
	}
}

// TestGetBlocksEvictionSettlesBlockLedger pins that eviction returns every
// byte an entry was charged: once the second trace has pushed the first
// out, the ledger holds exactly the survivor's columnar footprint.
func TestGetBlocksEvictionSettlesBlockLedger(t *testing.T) {
	cfgA, cfgB := testConfig(1, 400), testConfig(2, 400)
	perEntry := entryBytes(cfgA)

	// Budget fits one entry with slack but not two.
	c := New(perEntry + perEntry/2)
	c.GetBlocks(cfgA)
	c.GetBlocks(cfgB)
	st := c.Stats()
	if st.Evicted == 0 {
		t.Fatalf("no eviction under a one-entry budget (stats %v)", st)
	}
	if st.Entries != 1 {
		t.Errorf("%d resident entries after eviction, want 1", st.Entries)
	}
	if want := entryBytes(cfgB); st.Bytes != want {
		t.Errorf("Bytes = %d after eviction, want survivor's %d", st.Bytes, want)
	}
}

func TestConcurrentSameKeyGeneratesOnce(t *testing.T) {
	c := New(0)
	cfg := testConfig(7, 400)
	const goroutines = 16
	var wg sync.WaitGroup
	blks := make([][]trace.Block, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			blks[g], _ = c.GetBlocks(cfg)
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Generated != 1 {
		t.Errorf("%d generations for one key under concurrency, want 1", st.Generated)
	}
	for g := 1; g < goroutines; g++ {
		if &blks[g][0] != &blks[0][0] {
			t.Errorf("goroutine %d got a private copy", g)
		}
	}
	if want := trace.BlocksBytes(blks[0]); st.Bytes != want {
		t.Errorf("Bytes = %d after concurrent misses, want exactly one trace's %d", st.Bytes, want)
	}
}

// TestGetBlocksConcurrentSingleConversion mixes concurrent Get and
// GetBlocks misses on one key: both views must wait on the same single
// generation, and the block callers must share one slice.
func TestGetBlocksConcurrentSingleConversion(t *testing.T) {
	c := New(0)
	cfg := testConfig(1, 500)
	want, _ := cfg.Records()
	const goroutines = 8
	out := make([]*trace.Block, goroutines)
	recs := make([][]trace.Record, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			if g%2 == 1 {
				recs[g], _ = c.Get(cfg)
				return
			}
			blks, _ := c.GetBlocks(cfg)
			out[g] = &blks[0]
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if g%2 == 1 {
			sameRecords(t, "concurrent Get", recs[g], want)
		} else if out[g] != out[0] {
			t.Fatalf("goroutine %d received a different block slice", g)
		}
	}
	st := c.Stats()
	if st.Generated != 1 {
		t.Errorf("%d generations under concurrent Get/GetBlocks, want 1", st.Generated)
	}
	blks, _ := c.GetBlocks(cfg)
	if want := trace.BlocksBytes(blks); st.Bytes != want {
		t.Errorf("Bytes = %d after concurrent misses, want exactly one trace's %d", st.Bytes, want)
	}
}

// TestConcurrentGetEvict hammers a tight-budget cache from many goroutines
// so readers, inserts and evictions interleave, half of them through the
// Get record view; run under -race this is the scheduler-safety proof for
// the shared cache. Every returned trace must match the deterministic
// reference generation bit for bit.
func TestConcurrentGetEvict(t *testing.T) {
	const nCfg = 6
	cfgs := make([]workload.Config, nCfg)
	want := make([][]trace.Record, nCfg)
	for i := range cfgs {
		cfgs[i] = testConfig(uint64(i+1), 300)
		want[i], _ = cfgs[i].Records()
	}
	// Budget fits only ~2 of the 6 working sets: constant eviction churn.
	perEntry := entryBytes(cfgs[0])
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
				var recs []trace.Record
				var sum workload.Summary
				if (g+i)%2 == 0 {
					recs, sum = c.Get(cfgs[k])
				} else {
					var blks []trace.Block
					blks, sum = c.GetBlocks(cfgs[k])
					recs = trace.BlocksRecords(blks)
				}
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

// TestConcurrentGetBlocksEvictKeepsLedger generates traces on several
// goroutines under a budget that holds about one and a half of them, so
// entries are evicted while other entries generate. Once quiet, the byte
// ledger must equal the sum over the resident entries, each charged its
// blocks' columnar footprint; run under -race it also guards generation's
// writes against a concurrent evictOver.
func TestConcurrentGetBlocksEvictKeepsLedger(t *testing.T) {
	cfgs := []workload.Config{testConfig(1, 300), testConfig(2, 300), testConfig(3, 300)}
	one := entryBytes(cfgs[0])
	c := New(one + one/2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				c.GetBlocks(cfgs[(g+i)%len(cfgs)])
			}
		}(g)
	}
	wg.Wait()
	var bytes int64
	for _, e := range c.entries { //lint:sorted commutative sum
		if want := trace.BlocksBytes(e.blocks); e.bytes != want {
			t.Errorf("entry %s charged %d bytes, its blocks hold %d", e.key, e.bytes, want)
		}
		bytes += e.bytes
	}
	st := c.Stats()
	if st.Evicted == 0 {
		t.Fatalf("budget never evicted: %v", st)
	}
	if st.Bytes != bytes {
		t.Errorf("ledger Bytes=%d, resident entries hold %d", st.Bytes, bytes)
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
	smallBytes, bigBytes := entryBytes(small), entryBytes(big)
	if bigBytes <= 3*smallBytes {
		t.Fatalf("test setup: big trace (%d bytes) not big enough vs small (%d)", bigBytes, smallBytes)
	}

	// Budget fits a few small entries but not the big one.
	c := New(3 * smallBytes)
	c.GetBlocks(small)
	want, wantSum := big.Records()

	for pass := 0; pass < 2; pass++ {
		got, sum := c.GetBlocks(big)
		if sum.Records != wantSum.Records {
			t.Fatalf("pass %d: oversized summary counts %d records, want %d", pass, sum.Records, wantSum.Records)
		}
		sameRecords(t, "oversized trace", trace.BlocksRecords(got), want)
	}

	st := c.Stats()
	if st.Oversize != 2 {
		t.Errorf("oversize count %d, want 2 (one per call for the big trace)", st.Oversize)
	}
	if st.Evicted != 0 {
		t.Errorf("oversized trace evicted %d resident entries; must not touch them", st.Evicted)
	}
	if st.Entries != 1 || st.Bytes != smallBytes {
		t.Errorf("residency after oversized calls: %d entries / %d bytes, want the small entry alone (%d bytes)", st.Entries, st.Bytes, smallBytes)
	}
	// The small entry must still be a hit — it was never flushed.
	hitsBefore := st.Hits
	c.GetBlocks(small)
	if got := c.Stats().Hits - hitsBefore; got != 1 {
		t.Errorf("small entry lost from cache (hits delta %d, want 1)", got)
	}
}
