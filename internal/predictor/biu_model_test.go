package predictor

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/counter"
	"repro/internal/state"
	"repro/internal/trace"
)

// biuModel is the map-and-slice BIU the open-addressed table must behave
// as: a map of live entries and their insertion order, evicting the oldest
// past the limit.
type biuModel struct {
	mode      counter.SelectionMode
	limit     int
	entries   map[uint64]*BIUEntry
	order     []uint64
	evictions uint64
}

func newBIUModel(mode counter.SelectionMode, limit int) *biuModel {
	return &biuModel{mode: mode, limit: limit, entries: map[uint64]*BIUEntry{}}
}

func (m *biuModel) ensure(pc uint64) *BIUEntry {
	if e, ok := m.entries[pc]; ok {
		return e
	}
	e := &BIUEntry{Sel: counter.NewSelection(m.mode)}
	m.entries[pc] = e
	m.order = append(m.order, pc)
	if m.limit > 0 && len(m.order) > m.limit {
		delete(m.entries, m.order[0])
		m.order = m.order[1:]
		m.evictions++
	}
	return e
}

// Walk writes the section the model's contents must produce, each value
// as a fingerprint so the model never stores; it is never loaded.
func (m *biuModel) Walk(c *state.Codec) {
	if c.Loading() {
		panic("the model is never loaded")
	}
	c.Begin(state.SecBIU)
	c.MatchU8(uint8(m.mode))
	c.Match(uint64(m.limit))
	c.Match(m.evictions)
	c.Match(uint64(len(m.order)))
	for _, pc := range m.order {
		c.Match(pc)
		c.MatchBool(m.entries[pc].MT)
		c.MatchU8(m.entries[pc].Sel.State())
	}
	c.End()
}

// collidingPCs returns n word-aligned PCs whose home slots coincide in every
// table of up to 1<<12 slots (the top 12 bits of pc*fibMul agree), so each
// probe run they join is as long as it can get.
func collidingPCs(n int) []uint64 {
	var pcs []uint64
	first := uint64(0x1000)
	home := first * fibMul >> 52
	for pc := first; len(pcs) < n; pc += 4 {
		if pc*fibMul>>52 == home {
			pcs = append(pcs, pc)
		}
	}
	return pcs
}

// TestBIUMatchesModel drives random Ensure/Observe/Reset/save/load
// sequences through the table and the model — PCs forced onto one probe
// home mixed with scattered ones and PC 0 — and after every step requires
// equal Len, Evictions, entry states for every PC ever used, and the same
// serialized bytes, which fixes the FIFO order.
func TestBIUMatchesModel(t *testing.T) {
	pcs := append(collidingPCs(40), 0)
	for i := 0; i < 40; i++ {
		pcs = append(pcs, uint64(0x40_0000+i*0x1234)&^3)
	}
	classes := []trace.Class{trace.CondDirect, trace.DirectCall, trace.IndirectJmp, trace.IndirectJsr, trace.Return, trace.JsrCoroutine}
	for _, limit := range []int{0, 1, 7, 64} {
		for _, mode := range []counter.SelectionMode{counter.Normal, counter.PIBBiased} {
			name := fmt.Sprintf("limit %d mode %d", limit, mode)
			rng := rand.New(rand.NewSource(int64(limit)*10 + int64(mode)))
			b, m := NewBIU(mode, limit), newBIUModel(mode, limit)
			for step := 0; step < 4000; step++ {
				pc := pcs[rng.Intn(len(pcs))]
				switch op := rng.Intn(100); {
				case op < 55:
					e, want := b.Ensure(pc), m.ensure(pc)
					if *e != *want {
						t.Fatalf("%s step %d: Ensure(%#x) = %+v, model %+v", name, step, pc, *e, *want)
					}
					// Train through the returned entry before any other call.
					correct, mt := rng.Intn(2) == 0, rng.Intn(4) == 0
					e.Sel.Update(correct)
					want.Sel.Update(correct)
					e.MT, want.MT = e.MT || mt, want.MT || mt
				case op < 90:
					r := trace.Record{PC: pc, Class: classes[rng.Intn(len(classes))], MT: rng.Intn(2) == 0}
					b.Observe(r)
					if r.Class.Indirect() {
						if e := m.ensure(pc); r.MT {
							e.MT = true
						}
					}
				case op < 92:
					b.Reset()
					m = newBIUModel(mode, limit)
				default:
					// Restore over the same table, into a fresh one, or into
					// one warm with unrelated entries.
					data := state.SaveBytes(b)
					switch rng.Intn(3) {
					case 1:
						b = NewBIU(mode, limit)
					case 2:
						b = NewBIU(mode, limit)
						for _, p := range pcs[:rng.Intn(len(pcs))] {
							b.Ensure(p ^ 0x8000_0000)
						}
					}
					if err := state.LoadBytes(b, data); err != nil {
						t.Fatalf("%s step %d: load: %v", name, step, err)
					}
				}
				if b.Len() != len(m.order) || b.Evictions() != m.evictions {
					t.Fatalf("%s step %d: Len %d Evictions %d, model %d %d", name, step, b.Len(), b.Evictions(), len(m.order), m.evictions)
				}
				for _, p := range pcs {
					got, want := b.Lookup(p), m.entries[p]
					if (got == nil) != (want == nil) || (got != nil && *got != *want) {
						t.Fatalf("%s step %d: Lookup(%#x) = %v, model %v", name, step, p, got, want)
					}
				}
				if got, want := state.SaveBytes(b), state.SaveBytes(m); !bytes.Equal(got, want) {
					t.Fatalf("%s step %d: snapshot differs from the model's", name, step)
				}
			}
		}
	}
}
