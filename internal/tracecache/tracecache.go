// Package tracecache materializes synthetic benchmark traces at most once
// per process. The experiment harness is a grid of analyses over the same
// 14-run suite, and before this cache existed every analysis regenerated
// every trace from scratch; the cache keys each workload.Config by a
// fingerprint (name, input, seed, events and the scalar shape fields) and
// hands all callers the same immutable []trace.Block and Summary.
//
// Blocks are the only form a cached trace takes: each entry is generated
// straight into blocks (workload.Config.Blocks) and charged its columnar
// footprint (trace.BlocksBytes). Get is a record view for block-unaware
// callers: it flattens the cached blocks on every call, and nothing
// record-shaped stays resident.
//
// Entries are held under a configurable memory budget with LRU eviction.
// An evicted entry is not an error: the next call simply regenerates it —
// generation is deterministic, so cache behaviour can never change results,
// only wall-clock time.
//
// The cache is safe for concurrent use. Concurrent misses on the same key
// generate the trace once; latecomers block until it is ready. Returned
// blocks are shared across callers and MUST be treated as immutable.
package tracecache

import (
	"fmt"
	"sync"

	"repro/internal/trace"
	"repro/internal/workload"
)

// Stats counts cache traffic since construction. Generated counts actual
// trace syntheses (one per miss), and the experiment harness asserts it
// stays at one per suite run.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Generated uint64
	Evicted   uint64
	// Oversize counts traces larger than the whole budget: they are served
	// to their waiters but never become resident (see GetBlocks).
	Oversize uint64
	// Bytes is the total resident footprint under the columnar size model
	// (trace.BlocksBytes).
	Bytes   int64
	Entries int
}

func (s Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d generated=%d evicted=%d oversize=%d entries=%d bytes=%d",
		s.Hits, s.Misses, s.Generated, s.Evicted, s.Oversize, s.Entries, s.Bytes)
}

// entry is one cached trace. blocks, sum and bytes are written exactly
// once, before ready is closed; waiters must receive on ready before
// reading them.
type entry struct {
	key    string
	blocks []trace.Block
	sum    workload.Summary
	bytes  int64 // accounted footprint: trace.BlocksBytes(blocks)
	ready  chan struct{}

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

// New returns a cache bounded to budgetBytes of block storage; a budget of
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
	return fmt.Sprintf("%s|%s|%#x|%d|%d|%g|%d|%g|%g|%t|%g|%d|%#v",
		cfg.Name, cfg.Input, cfg.Seed, cfg.Events,
		cfg.CondPerEvent, cfg.CondNoise,
		cfg.CondPatternBits, cfg.STRate, cfg.CallRate,
		cfg.ChainSites, cfg.ChainNoise, cfg.ChainOrder, cfg.Sites)
}

// GetBlocks returns cfg's trace in columnar form, plus its summary,
// generating it on first use (or after eviction) and otherwise returning
// the shared cached copy. The returned blocks are shared: callers must not
// modify them.
func (c *Cache) GetBlocks(cfg workload.Config) ([]trace.Block, workload.Summary) {
	e := c.getEntry(Fingerprint(cfg), cfg)
	<-e.ready
	return e.blocks, e.sum
}

// Get returns cfg's trace as records, plus its summary. It is an uncached
// view over GetBlocks: every call flattens the shared blocks into a fresh
// slice the caller owns, so prefer GetBlocks wherever blocks will do.
func (c *Cache) Get(cfg workload.Config) ([]trace.Record, workload.Summary) {
	blks, sum := c.GetBlocks(cfg)
	return trace.BlocksRecords(blks), sum
}

// getEntry returns the live entry for key, generating its blocks on a
// miss. The caller must receive on the returned entry's ready channel
// before reading blocks/sum. Accounting settles before ready closes, so
// once a waiter is released the entry is either resident (mapped, linked,
// counted in Stats.Bytes) or already forgotten (oversize or evicted).
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

	e.blocks, e.sum = cfg.Blocks()
	e.bytes = trace.BlocksBytes(e.blocks)

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
