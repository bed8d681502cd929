package sim

import (
	"context"
	"io"
	"sync"

	"repro/internal/predictor"
	"repro/internal/stats"
	"repro/internal/trace"
)

// RingSlots and SlotCap shape ProcessReader's decode ring: RingSlots
// blocks of SlotCap records each, so the ring's lanes together hold one
// trace.BlockCap block. Four slots let the decoder run up to three blocks
// ahead of the slowest predictor; keeping their total at one block keeps a
// streamed trace's resident decode state what a single reused block cost.
const (
	RingSlots = 4
	SlotCap   = trace.BlockCap / RingSlots
)

// slot is one block of the decode ring. held counts the predictor
// goroutines that have not yet released b; the decoder refills b only
// once it is zero.
type slot struct {
	b    trace.Block
	held sync.WaitGroup
}

// ring is the decode ring together with the state of the predictor
// goroutines that replay it.
type ring struct {
	slots [RingSlots]slot
	// crew holds one follower per predictor, grown to the widest engine
	// the ring has streamed.
	crew []follower
	join sync.WaitGroup
}

// keptRings bounds the rings kept between streams: a warm stream takes a
// kept ring and allocates neither lane storage nor channels. A free list
// rather than a sync.Pool, because the decoder migrates between Ps as it
// waits on the predictor goroutines, and a sync.Pool misses a ring put on
// another P's private slot.
const keptRings = 4

var rings = make(chan *ring, keptRings)

// getRing takes a kept ring, or builds one.
func getRing() *ring {
	select {
	case rg := <-rings:
		return rg
	default:
	}
	rg := new(ring)
	for i := range rg.slots {
		rg.slots[i].b = trace.NewBlock(SlotCap)
	}
	return rg
}

// putRing keeps rg for the next stream unless keptRings are kept already.
func putRing(rg *ring) {
	select {
	case rings <- rg:
	default:
	}
}

// follower is one predictor goroutine's state: the lane it replays, the
// feed the decoder publishes slots on (a nil slot ends the stream),
// private counters and its own prediction lane, kept with the ring so a
// warm stream grows none, padded so that no two goroutines' counters
// share a cache line.
type follower struct {
	l     *lane
	feed  chan *slot
	c     stats.Counters
	preds []predictor.Prediction
	_     [64]byte
}

// ProcessReader streams records from a trace.Reader until EOF. The calling
// goroutine decodes the stream into a ring of RingSlots blocks and steps
// the RAS and the record and instruction totals, while each predictor
// replays the ring in stream order on a goroutine of its own, through the
// same per-predictor body as ProcessBlock. A slot is refilled only after
// every predictor has released it. Predictors share no state with each
// other or with the RAS, so the result equals ProcessBlocks over the same
// records.
//
// ctx is checked before every slot is filled; once it is done,
// ProcessReader stops decoding and returns context.Cause(ctx). On a decode
// error it returns the error. Either way, and at EOF, every record decoded
// before the stop has been replayed through every predictor and every
// goroutine has been joined before ProcessReader returns.
func (e *Engine) ProcessReader(ctx context.Context, r *trace.Reader) error {
	rg := getRing()
	for len(rg.crew) < len(e.lanes) {
		// At most RingSlots slots are ever published and unreleased, so
		// the decoder never blocks publishing one.
		rg.crew = append(rg.crew, follower{feed: make(chan *slot, RingSlots)})
	}
	crew := rg.crew[:len(e.lanes)]
	for i := range crew {
		f := &crew[i]
		f.l, f.c = &e.lanes[i], e.counters[i]
		rg.join.Add(1)
		go f.follow(&rg.join)
	}
	defer func() {
		for i := range crew {
			crew[i].feed <- nil
		}
		rg.join.Wait()
		for i := range crew {
			e.counters[i] = crew[i].c
			crew[i].l = nil
		}
		putRing(rg)
	}()

	for k := 0; ; k++ {
		s := &rg.slots[k%RingSlots]
		s.held.Wait()
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		err := r.ReadBlock(&s.b)
		if err == io.EOF {
			return nil
		}
		e.account(&s.b)
		s.held.Add(len(crew))
		for i := range crew {
			crew[i].feed <- s
		}
		if err != nil {
			return err
		}
	}
}

// follow is one predictor's side of ProcessReader: it replays every slot
// published on its feed, in stream order, releasing each as it finishes,
// and signals join at the end of the stream.
//
//ppm:hotpath per-predictor streaming replay loop
func (f *follower) follow(join *sync.WaitGroup) {
	for {
		s := <-f.feed
		if s == nil {
			break
		}
		f.l.replay(&s.b, &f.c, &f.preds)
		s.held.Done()
	}
	join.Done()
}
