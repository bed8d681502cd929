package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// now is the benchmark's single wall-clock read point.
func now() time.Time {
	return time.Now() //lint:wallclock the benchmark measures host time; simulated results never see it
}

// span is one call into a layer, timed from the benchmark's side of the
// call. Spans of one operation share Op; Parent is the enclosing span's ID,
// 0 for an operation's root span. Times are nanoseconds since the tracer
// started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return 0
	}
	at := now().Sub(t.base).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: at, End: at})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	at := now().Sub(t.base).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = at
	t.mu.Unlock()
}

// layerTimes is what a finished trace says about where time went.
type layerTimes struct {
	// selfNS is, per span name, the summed self time: each span's duration
	// minus the part of it its children cover.
	selfNS map[string]int64
	// totalNS is, per span name, the summed duration.
	totalNS map[string]int64
	count   map[string]int
	// covered and opNS sum, over root spans, the time covered by their
	// children and their duration: covered/opNS is the tracing coverage.
	covered, opNS int64
}

func (t *tracer) times() layerTimes {
	lt := layerTimes{selfNS: map[string]int64{}, totalNS: map[string]int64{}, count: map[string]int{}}
	if t == nil {
		return lt
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]span, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		d := s.End - s.Start
		cov := covered(s, children[s.ID])
		lt.selfNS[s.Name] += d - cov
		lt.totalNS[s.Name] += d
		lt.count[s.Name]++
		if s.Parent == 0 {
			lt.covered += cov
			lt.opNS += d
		}
	}
	return lt
}

// coverage is the share of root-span time covered by layer spans.
func (lt layerTimes) coverage() float64 {
	if lt.opNS == 0 {
		return 0
	}
	return float64(lt.covered) / float64(lt.opNS)
}

// covered is the length of the union of the children's intervals, clipped
// to the parent. Children may overlap when they ran on different workers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	ivs := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		ivs = append(ivs, [2]int64{max(k.Start, parent.Start), min(k.End, parent.End)})
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	cur := ivs[0]
	for _, iv := range ivs[1:] {
		if iv[0] > cur[1] {
			total += max(cur[1]-cur[0], 0)
			cur = iv
			continue
		}
		cur[1] = max(cur[1], iv[1])
	}
	return total + max(cur[1]-cur[0], 0)
}

// spanTrace is one traced workload run as the spans file holds it.
type spanTrace struct {
	Workload string             `json:"workload"`
	Coverage float64            `json:"coverage"`
	SelfMS   map[string]float64 `json:"self_ms"`
	Count    map[string]int     `json:"count"`
	Spans    []span             `json:"spans"`
}

// writeSpans writes, for each traced run, every span and the self time per
// span name to path as one JSON document.
func writeSpans(path string, runs []*outcome) error {
	var doc struct {
		Traces []spanTrace `json:"traces"`
	}
	for _, o := range runs {
		lt := o.trace.times()
		selfMS := make(map[string]float64, len(lt.selfNS))
		for name, ns := range lt.selfNS { //lint:sorted filled into a map that encoding/json writes in key order
			selfMS[name] = float64(ns) / 1e6
		}
		doc.Traces = append(doc.Traces, spanTrace{o.workload, lt.coverage(), selfMS, lt.count, o.trace.spans})
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
