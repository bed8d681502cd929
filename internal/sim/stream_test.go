package sim_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cbt"
	"repro/internal/check/leakcheck"
	"repro/internal/oracle"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/trace"
)

// streamRecords is a run whose records carry switch values, so the
// ValueAware lane is exercised, and which is longer than two BlockCap
// blocks.
func streamRecords(t *testing.T) []trace.Record {
	t.Helper()
	cfg, ok := bench.ByName("perl.exp")
	if !ok {
		t.Fatal("no perl.exp run")
	}
	cfg.Events = 2000
	recs, _ := cfg.Records()
	if len(recs) < 2*trace.BlockCap+1 {
		t.Fatalf("perl.exp has %d records, need more than two blocks", len(recs))
	}
	return recs
}

func encode(t *testing.T, recs []trace.Record) []byte {
	t.Helper()
	data, err := trace.Encode(recs)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// sequential is the reference: the same records through ProcessBlocks
// over BlockCap-sized blocks on the calling goroutine.
func sequential(recs []trace.Record, preds []predictor.IndirectPredictor) *sim.Engine {
	e := sim.New(preds...)
	e.ProcessBlocks(trace.Blocks(recs))
	return e
}

// streamed runs body through ProcessReader under ctx.
func streamed(t *testing.T, ctx context.Context, body []byte, preds []predictor.IndirectPredictor) (*sim.Engine, error) {
	t.Helper()
	r, err := trace.NewReader(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	e := sim.New(preds...)
	return e, e.ProcessReader(ctx, r)
}

// sameEngine fails t unless got and want agree on every counter, the RAS
// accuracy and the record and instruction totals.
func sameEngine(t *testing.T, got, want *sim.Engine) {
	t.Helper()
	if g, w := fmt.Sprint(got.Counters()), fmt.Sprint(want.Counters()); g != w {
		t.Errorf("counters\n got: %s\nwant: %s", g, w)
	}
	gh, gt := got.RAS().Accuracy()
	wh, wt := want.RAS().Accuracy()
	if gh != wh || gt != wt {
		t.Errorf("RAS %d/%d, want %d/%d", gh, gt, wh, wt)
	}
	if got.Records() != want.Records() || got.Instructions() != want.Instructions() {
		t.Errorf("records %d, instructions %d; want %d, %d",
			got.Records(), got.Instructions(), want.Records(), want.Instructions())
	}
}

// lineup is a named predictor line-up that builds fresh instances.
type lineup struct {
	name  string
	build func() []predictor.IndirectPredictor
}

func lineups() []lineup {
	ls := []lineup{
		{"fig6", bench.Figure6Predictors},
		{"fig7", bench.Figure7Predictors},
		{"modern", bench.ModernPredictors},
		{"oracle+cbt", func() []predictor.IndirectPredictor {
			// The oracle has no ProcessBlock and takes the step fallback;
			// the CBT is ValueAware and reads the Value lane itself.
			return []predictor.IndirectPredictor{
				oracle.New(4),
				cbt.New(cbt.Config{Entries: 2048, Availability: 0.75, Seed: 3}),
				bench.Figure6Predictors()[0],
			}
		}},
		{"none", func() []predictor.IndirectPredictor { return nil }},
	}
	for _, name := range bench.PredictorNames() {
		ls = append(ls, lineup{name, func() []predictor.IndirectPredictor {
			p, _ := bench.NewPredictor(name)
			return []predictor.IndirectPredictor{p}
		}})
	}
	return ls
}

// TestProcessReaderMatchesProcessBlocks pins the fan-out to the sequential
// block engine for every family alone and every line-up, over streams
// that end inside, at and just past a slot and a BlockCap block.
func TestProcessReaderMatchesProcessBlocks(t *testing.T) {
	leakcheck.Check(t)
	all := streamRecords(t)
	values := 0
	for _, r := range all {
		if r.Value != 0 {
			values++
		}
	}
	if values == 0 {
		t.Fatal("the stream carries no switch values")
	}
	sizes := []int{1, sim.SlotCap - 1, sim.SlotCap, sim.SlotCap + 1,
		trace.BlockCap - 1, trace.BlockCap, trace.BlockCap + 1, len(all)}
	for _, l := range lineups() {
		t.Run(l.name, func(t *testing.T) {
			for _, n := range sizes {
				recs := all[:n]
				got, err := streamed(t, context.Background(), encode(t, recs), l.build())
				if err != nil {
					t.Fatalf("%d records: %v", n, err)
				}
				sameEngine(t, got, sequential(recs, l.build()))
			}
		})
	}
}

// TestProcessReaderEmptyStream: a header and no records leaves the engine
// untouched.
func TestProcessReaderEmptyStream(t *testing.T) {
	leakcheck.Check(t)
	got, err := streamed(t, context.Background(), encode(t, nil), bench.Figure6Predictors())
	if err != nil {
		t.Fatal(err)
	}
	sameEngine(t, got, sim.New(bench.Figure6Predictors()...))
}

// TestProcessReaderTruncated cuts the stream inside a record at several
// depths: the reader reports the truncation, and the engine has processed
// exactly the records decoded before it.
func TestProcessReaderTruncated(t *testing.T) {
	leakcheck.Check(t)
	all := streamRecords(t)
	for _, k := range []int{0, 5, sim.SlotCap, trace.BlockCap + 17, 2*trace.BlockCap + 3} {
		cut := encode(t, all[:k+1])[:len(encode(t, all[:k]))+1]
		got, err := streamed(t, context.Background(), cut, bench.Figure6Predictors())
		if !errors.Is(err, trace.ErrTruncated) {
			t.Fatalf("cut in record %d: err = %v, want ErrTruncated", k, err)
		}
		sameEngine(t, got, sequential(all[:k], bench.Figure6Predictors()))
	}
}

// cancelAfter is a source that cancels a context once it has handed out
// limit bytes.
type cancelAfter struct {
	src    io.Reader
	limit  int
	read   int
	cancel context.CancelCauseFunc
}

func (c *cancelAfter) Read(p []byte) (int, error) {
	if len(p) > 512 {
		p = p[:512]
	}
	n, err := c.src.Read(p)
	if c.read += n; c.read >= c.limit {
		c.cancel(errStop)
	}
	return n, err
}

var errStop = errors.New("stop")

// TestProcessReaderCancelled: a context done before the first block stops
// the stream with nothing processed, and one cancelled mid-stream stops it
// after a prefix that every predictor has replayed. Either way every
// predictor goroutine is joined on return.
func TestProcessReaderCancelled(t *testing.T) {
	leakcheck.Check(t)
	all := streamRecords(t)
	body := encode(t, all)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := streamed(t, ctx, body, bench.Figure6Predictors())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled before the first block: err = %v, want context.Canceled", err)
	}
	sameEngine(t, got, sim.New(bench.Figure6Predictors()...))

	mid, stop := context.WithCancelCause(context.Background())
	defer stop(nil)
	r, err := trace.NewReader(&cancelAfter{src: bytes.NewReader(body), limit: len(body) / 3, cancel: stop})
	if err != nil {
		t.Fatal(err)
	}
	e := sim.New(bench.Figure6Predictors()...)
	if err := e.ProcessReader(mid, r); !errors.Is(err, errStop) {
		t.Fatalf("cancelled mid-stream: err = %v, want the cancellation cause", err)
	}
	n := int(e.Records())
	if n == 0 || n >= len(all) {
		t.Fatalf("cancelled mid-stream after %d of %d records", n, len(all))
	}
	sameEngine(t, e, sequential(all[:n], bench.Figure6Predictors()))
}

// TestNewRejectsSharedInstance: attaching one predictor instance twice
// would run it on two goroutines in ProcessReader, so New refuses it.
func TestNewRejectsSharedInstance(t *testing.T) {
	p, _ := bench.NewPredictor("BTB")
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "attached twice") {
			t.Errorf("New(p, q, p) recovered %q, want a panic naming the shared instance", msg)
		}
	}()
	q, _ := bench.NewPredictor("BTB")
	sim.New(p, q) // two instances of one family are fine
	sim.New(p, q, p)
}
