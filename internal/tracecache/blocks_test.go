package tracecache

import (
	"sync"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

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

	// The blocks decode to exactly the cached records.
	got := trace.BlocksRecords(b1)
	if len(got) != len(recs) {
		t.Fatalf("blocks flatten to %d records, cache holds %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("block record %d differs from cached record", i)
		}
	}

	// One generation, one conversion, and the ledger splits exactly into
	// record bytes plus the columnar model's block bytes.
	st := c.Stats()
	if st.Generated != 1 {
		t.Errorf("generated %d traces, want 1 (GetBlocks reuses Get's records)", st.Generated)
	}
	wantBlock := trace.BlocksBytes(b1)
	wantRecord := int64(cap(recs)) * recordBytes
	if st.BlockBytes != wantBlock {
		t.Errorf("BlockBytes = %d, want columnar model %d", st.BlockBytes, wantBlock)
	}
	if st.Bytes != wantRecord+wantBlock {
		t.Errorf("Bytes = %d, want records %d + blocks %d", st.Bytes, wantRecord, wantBlock)
	}
}

func TestGetBlocksEvictionSettlesBlockLedger(t *testing.T) {
	cfgA, cfgB := testConfig(1, 400), testConfig(2, 400)
	probe := New(0)
	recsA, _ := probe.Get(cfgA)
	blksA, _ := probe.GetBlocks(cfgA)
	perEntry := int64(cap(recsA))*recordBytes + trace.BlocksBytes(blksA)

	// Budget fits one record+block entry with slack but not two: caching B
	// in both forms must evict A and return every one of A's bytes —
	// including the columnar portion — to the ledger.
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
	recsB, _ := New(0).Get(cfgB)
	blksB, _ := New(0).GetBlocks(cfgB)
	if want := trace.BlocksBytes(blksB); st.BlockBytes != want {
		t.Errorf("BlockBytes = %d after eviction, want survivor's %d", st.BlockBytes, want)
	}
	if want := int64(cap(recsB))*recordBytes + trace.BlocksBytes(blksB); st.Bytes != want {
		t.Errorf("Bytes = %d after eviction, want survivor's %d", st.Bytes, want)
	}
}

func TestGetBlocksCombinedOversizeForgotten(t *testing.T) {
	cfg := testConfig(1, 400)
	probe := New(0)
	recs, _ := probe.Get(cfg)
	blks, _ := probe.GetBlocks(cfg)
	recBytes := int64(cap(recs)) * recordBytes
	blkBytes := trace.BlocksBytes(blks)

	// The records alone fit; records plus blocks do not. GetBlocks must
	// serve correct blocks, then forget the entry rather than let it squat
	// over budget.
	c := New(recBytes + blkBytes/2)
	got, _ := c.GetBlocks(cfg)
	if len(trace.BlocksRecords(got)) != len(recs) {
		t.Fatalf("combined-oversize blocks flatten to %d records, want %d", len(trace.BlocksRecords(got)), len(recs))
	}
	st := c.Stats()
	if st.Oversize != 1 {
		t.Errorf("oversize count %d, want 1", st.Oversize)
	}
	if st.Entries != 0 || st.Bytes != 0 || st.BlockBytes != 0 {
		t.Errorf("combined-oversize entry left residue: %d entries, %d bytes, %d block bytes", st.Entries, st.Bytes, st.BlockBytes)
	}
	if st.Evicted != 0 {
		t.Errorf("combined-oversize entry evicted %d residents", st.Evicted)
	}
}

func TestGetBlocksConcurrentSingleConversion(t *testing.T) {
	c := New(0)
	cfg := testConfig(1, 500)
	const goroutines = 8
	out := make([]*trace.Block, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			blks, _ := c.GetBlocks(cfg)
			out[g] = &blks[0]
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if out[g] != out[0] {
			t.Fatalf("goroutine %d received a different block conversion", g)
		}
	}
	st := c.Stats()
	if st.Generated != 1 {
		t.Errorf("%d generations under concurrent GetBlocks, want 1", st.Generated)
	}
	blks, _ := c.GetBlocks(cfg)
	if want := trace.BlocksBytes(blks); st.BlockBytes != want {
		t.Errorf("BlockBytes = %d after concurrent GetBlocks, want exactly one conversion's %d", st.BlockBytes, want)
	}
}

// TestConcurrentGetBlocksEvictKeepsLedger converts traces on several
// goroutines under a budget that holds about one and a half of them, so
// entries are evicted while other entries convert. Once quiet, the byte
// ledgers must equal the sum over the resident entries; run under -race it
// also guards the conversion's writes against a concurrent evictOver.
func TestConcurrentGetBlocksEvictKeepsLedger(t *testing.T) {
	cfgs := []workload.Config{testConfig(1, 300), testConfig(2, 300), testConfig(3, 300)}
	probe := New(0)
	probe.GetBlocks(cfgs[0])
	one := probe.Stats().Bytes
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
	var bytes, blockBytes int64
	for _, e := range c.entries { //lint:sorted commutative sum
		bytes += e.bytes
		blockBytes += e.blockBytes
	}
	st := c.Stats()
	if st.Evicted == 0 {
		t.Fatalf("budget never evicted: %v", st)
	}
	if st.Bytes != bytes || st.BlockBytes != blockBytes {
		t.Errorf("ledger Bytes=%d BlockBytes=%d, resident entries hold %d and %d", st.Bytes, st.BlockBytes, bytes, blockBytes)
	}
}
