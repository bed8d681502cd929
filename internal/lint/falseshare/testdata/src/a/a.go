// Package a is the falseshare fixture: adjacent atomics in structs and var
// blocks, and the padded-wrapper fix.
package a

import "sync/atomic"

// hotCounters packs two write-hot atomics into one cache line.
type hotCounters struct {
	hits   atomic.Uint64 // want `atomic fields hits, misses share a cache line`
	misses atomic.Uint64
}

// padded is the fix: each atomic owns a full 64-byte line.
type padded struct {
	hits   lineUint64
	misses lineUint64
}

// lineUint64 embeds the atomic so call sites keep their method set.
type lineUint64 struct {
	atomic.Uint64
	_ [56]byte
}

// mixed has one atomic among plain fields: nothing to false-share with.
type mixed struct {
	hits  atomic.Uint64
	name  string
	limit int
}

// spread keeps its two atomics more than a line apart by interleaving bulk
// state; offsets, not adjacency, decide.
type spread struct {
	hits   atomic.Uint64
	bulk   [64]byte
	misses atomic.Uint64
}

// wrapped nests the atomics inside an embedded struct: the analyzer measures
// where the words land, not the declaration depth.
type inner struct {
	a atomic.Int64 // want `atomic fields a, b share a cache line`
	b atomic.Int64
}

type wrapped struct {
	inner inner // want `atomic fields inner.a, inner.b share a cache line`
}

// blessed is a low-rate counter pair: a comment claiming so is no escape.
type blessed struct {
	starts atomic.Uint64 // want `atomic fields starts, stops share a cache line`
	stops  atomic.Uint64
}

// locals declares two atomics in one spec: the frame may pack them.
func locals() int64 {
	var next, done atomic.Int64 // want `atomic variables next, done are declared together`
	next.Add(1)
	done.Add(1)
	return next.Load() + done.Load()
}

// separate declarations are not adjacent by construction.
func separate() int64 {
	var next atomic.Int64
	var done atomic.Int64
	next.Add(1)
	done.Add(1)
	return next.Load() + done.Load()
}
