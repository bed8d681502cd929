// Package tracecache materializes synthetic benchmark traces at most once
// per process. The experiment harness is a grid of analyses over the same
// 14-run suite, and before this cache existed every analysis regenerated
// every trace from scratch; the cache keys each workload.Config by a
// fingerprint (name, input, seed, events and the scalar shape fields) and
// hands all callers the same immutable []trace.Record and Summary.
//
// Entries are held under a configurable memory budget with LRU eviction.
// An evicted entry is not an error: the next Get simply regenerates it —
// generation is deterministic, so cache behaviour can never change results,
// only wall-clock time.
//
// The cache is safe for concurrent use. Concurrent misses on the same key
// generate the trace once; latecomers block until it is ready. Returned
// slices are shared across callers and MUST be treated as immutable.
package tracecache

import (
	"fmt"
	"sync"
	"unsafe"

	"repro/internal/trace"
	"repro/internal/workload"
)

// recordBytes is the in-memory footprint of one trace.Record, used for
// budget accounting.
const recordBytes = int64(unsafe.Sizeof(trace.Record{}))

// Stats counts cache traffic since construction. Generated counts actual
// trace syntheses (one per miss), and the experiment harness asserts it
// stays at one per suite run.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Generated uint64
	Evicted   uint64
	// Oversize counts traces larger than the whole budget: they are served
	// to their waiters but never become resident (see Get).
	Oversize uint64
	// Bytes is the total resident footprint: record storage plus, for
	// entries whose columnar form has been materialized by GetBlocks, the
	// block storage under the columnar size model (trace.BlocksBytes).
	Bytes int64
	// BlockBytes is the columnar portion of Bytes: what the resident
	// pre-decoded blocks cost on top of the record slices.
	BlockBytes int64
	Entries    int
}

func (s Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d generated=%d evicted=%d oversize=%d entries=%d bytes=%d blockbytes=%d",
		s.Hits, s.Misses, s.Generated, s.Evicted, s.Oversize, s.Entries, s.Bytes, s.BlockBytes)
}

// entry is one cached trace. recs and sum are written exactly once, before
// ready is closed; waiters must receive on ready before reading them.
type entry struct {
	key   string
	recs  []trace.Record
	sum   workload.Summary
	bytes int64 // accounted footprint: records, plus blocks once attached
	ready chan struct{}

	// blocks is the pre-decoded columnar form, converted lazily by the
	// first GetBlocks on the entry. blocksReady is nil until a caller
	// claims the conversion; it is closed with blocks already set, so
	// waiters receive and then read blocks. blockBytes is the columnar
	// portion of bytes, tracked separately so eviction can settle the
	// Stats.BlockBytes ledger.
	blocks      []trace.Block
	blocksReady chan struct{}
	blockBytes  int64

	// LRU list links; nil/nil when unlinked (evicted or generating).
	prev, next *entry
}

// Cache holds generated traces under a memory budget.
type Cache struct {
	mu      sync.Mutex
	budget  int64 // bytes; 0 means unlimited
	entries map[string]*entry
	// LRU doubly-linked list with sentinel-free ends: head is most
	// recently used, tail is the eviction candidate.
	head, tail *entry
	stats      Stats
}

// New returns a cache bounded to budgetBytes of record storage; a budget of
// 0 (or negative) is unlimited.
func New(budgetBytes int64) *Cache {
	if budgetBytes < 0 {
		budgetBytes = 0
	}
	return &Cache{budget: budgetBytes, entries: make(map[string]*entry)}
}

// Fingerprint derives the cache key of a Config from its identifying and
// shape fields. Site behaviours are included via their printed concrete
// values, so two configs sharing a name and seed but differing in any site
// spec hash apart.
func Fingerprint(cfg workload.Config) string {
	return fmt.Sprintf("%s|%s|%#x|%d|%d|%d|%g|%g|%d|%g|%g|%t|%g|%d|%g|%d|%#v",
		cfg.Name, cfg.Input, cfg.Seed, cfg.Events,
		cfg.CondPerEvent, cfg.CondSites, cfg.CondNoise, cfg.CondTakenBias,
		cfg.CondPatternBits, cfg.STRate, cfg.CallRate,
		cfg.ChainSites, cfg.ChainNoise, cfg.ChainOrder,
		cfg.GapMean, cfg.HistoryDepth, cfg.Sites)
}

// Get returns cfg's records and summary, generating them on first use (or
// after eviction) and otherwise returning the shared cached copy. The
// returned slice is shared: callers must not modify it.
func (c *Cache) Get(cfg workload.Config) ([]trace.Record, workload.Summary) {
	e := c.getEntry(Fingerprint(cfg), cfg)
	<-e.ready
	return e.recs, e.sum
}

// getEntry returns the live entry for key, generating the records on a
// miss. The caller must receive on the returned entry's ready channel
// before reading recs/sum. Accounting settles before ready closes, so once
// a waiter is released the entry is either resident (mapped, linked,
// counted in Stats.Bytes) or already forgotten (oversize) — an invariant
// GetBlocks relies on when it attaches block storage to the entry later.
func (c *Cache) getEntry(key string, cfg workload.Config) *entry {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.stats.Hits++
		if e.prev != nil || e.next != nil || c.head == e {
			c.unlink(e)
			c.pushFront(e)
		}
		c.mu.Unlock()
		return e
	}
	e := &entry{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	c.stats.Misses++
	c.stats.Generated++
	c.mu.Unlock()

	e.recs, e.sum = generate(cfg)
	e.bytes = int64(cap(e.recs)) * recordBytes

	c.mu.Lock()
	// A budget pass triggered by another insert may have dropped the entry
	// while it was generating; only a still-mapped entry joins the LRU
	// list and the byte accounting.
	if c.entries[key] == e {
		if c.budget > 0 && e.bytes > c.budget {
			// The trace alone exceeds the whole budget. Making it resident
			// would force evictOver to flush every smaller entry first and
			// then evict the newcomer itself on the next insert — thrashing
			// the cache without the big trace ever being a useful resident.
			// Serve it to the waiters blocked on e.ready and forget it; it
			// never enters the LRU list or the byte accounting.
			delete(c.entries, key)
			c.stats.Oversize++
		} else {
			c.stats.Bytes += e.bytes
			c.pushFront(e)
			c.evictOver()
		}
	}
	c.mu.Unlock()
	close(e.ready)
	return e
}

// GetBlocks returns cfg's trace in pre-decoded columnar form, plus its
// summary. The blocks are converted from the cached records on first use
// and then shared: re-simulation through the block engine never re-decodes
// a trace the cache already holds. Like Get's record slices, the returned
// blocks are shared across callers and MUST be treated as immutable.
//
// Block storage joins the owning entry's budget accounting under the
// columnar size model (trace.BlocksBytes), so a trace cached in both forms
// is charged for both; if the combined footprint exceeds the whole budget
// the entry is served to its waiters and forgotten, as Get does for
// oversize record sets.
func (c *Cache) GetBlocks(cfg workload.Config) ([]trace.Block, workload.Summary) {
	key := Fingerprint(cfg)
	e := c.getEntry(key, cfg)
	<-e.ready

	c.mu.Lock()
	if ready := e.blocksReady; ready != nil {
		// Another caller owns (or finished) the conversion.
		c.mu.Unlock()
		<-ready
		return e.blocks, e.sum
	}
	ready := make(chan struct{})
	e.blocksReady = ready
	c.mu.Unlock()

	blks := trace.Blocks(e.recs)
	bb := trace.BlocksBytes(blks)
	e.blocks = blks
	close(ready)

	c.mu.Lock()
	// Only an entry still mapped (i.e. still resident — getEntry settles
	// accounting before ready closes) carries the block storage into the
	// ledger; an entry evicted while converting just serves its waiters.
	// blockBytes is set here, under the lock, because a concurrent
	// evictOver reads it: it must say what this entry added to
	// Stats.BlockBytes, which is nothing until now.
	if c.entries[key] == e {
		if c.budget > 0 && e.bytes+bb > c.budget {
			c.unlink(e)
			delete(c.entries, key)
			c.stats.Bytes -= e.bytes
			c.stats.Oversize++
		} else {
			e.bytes += bb
			e.blockBytes = bb
			c.stats.Bytes += bb
			c.stats.BlockBytes += bb
			c.evictOver()
		}
	}
	c.mu.Unlock()
	return blks, e.sum
}

// generate materializes the config into memory. The slack trim matters:
// Records preallocates a worst-case capacity (its no-reallocation
// guarantee), and caching that slack would make the budget accounting pay
// for records that were never emitted.
func generate(cfg workload.Config) ([]trace.Record, workload.Summary) {
	recs, sum := cfg.Records()
	if cap(recs)-len(recs) > len(recs)/8 {
		trimmed := make([]trace.Record, len(recs))
		copy(trimmed, recs)
		recs = trimmed
	}
	return recs, sum
}

// evictOver drops least-recently-used ready entries until the budget is
// met. Entries still generating are not on the list and cannot be chosen.
// Callers hold c.mu.
func (c *Cache) evictOver() {
	if c.budget <= 0 {
		return
	}
	for c.stats.Bytes > c.budget && c.tail != nil {
		e := c.tail
		c.unlink(e)
		delete(c.entries, e.key)
		c.stats.Bytes -= e.bytes
		c.stats.BlockBytes -= e.blockBytes
		c.stats.Evicted++
	}
}

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	return s
}

// pushFront links e as most recently used. Callers hold c.mu.
func (c *Cache) pushFront(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// unlink removes e from the LRU list. Callers hold c.mu.
func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
