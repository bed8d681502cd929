package sched

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/predictor"
	"repro/internal/tracecache"
)

func TestMapCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 33} {
		const n = 100
		var counts [n]int32
		New(workers).Map(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestMapSerialPathStaysInOrderOnCallingGoroutine(t *testing.T) {
	var order []int
	New(1).Map(5, func(i int) { order = append(order, i) })
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
		t.Errorf("serial Map order = %v", order)
	}
	New(4).Map(0, func(int) { t.Error("fn called for empty range") })
}

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	if New(0).Workers() < 1 || New(-3).Workers() < 1 {
		t.Error("non-positive widths must resolve to at least one worker")
	}
	if New(7).Workers() != 7 {
		t.Error("explicit width not preserved")
	}
}

// TestSimulateParallelMatchesSerial is the core determinism property: the
// same suite and predictor set must produce identical counters at any pool
// width, with results in suite order.
func TestSimulateParallelMatchesSerial(t *testing.T) {
	suite := bench.Sized(2000)[:6]
	cache := tracecache.New(0)
	build := func() []predictor.IndirectPredictor {
		p1, _ := bench.NewPredictor("BTB")
		p2, _ := bench.NewPredictor("PPM-hyb")
		return []predictor.IndirectPredictor{p1, p2}
	}
	serial := New(1).SimulateBlocks(cache, suite, build)
	for _, workers := range []int{2, 8} {
		par := New(workers).SimulateBlocks(cache, suite, build)
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(par), len(serial))
		}
		for i := range serial {
			if par[i].Config.String() != suite[i].String() {
				t.Errorf("workers=%d: result %d is %s, want %s (canonical order broken)",
					workers, i, par[i].Config.String(), suite[i].String())
			}
			if !reflect.DeepEqual(par[i].Counters, serial[i].Counters) {
				t.Errorf("workers=%d: run %s counters diverge from serial", workers, suite[i].String())
			}
			if par[i].Summary.Records != serial[i].Summary.Records {
				t.Errorf("workers=%d: run %s summary diverges", workers, suite[i].String())
			}
		}
	}
	// One generation per config regardless of how many calls ran.
	if st := cache.Stats(); st.Generated != uint64(len(suite)) {
		t.Errorf("cache generated %d traces for %d configs", st.Generated, len(suite))
	}
}

func TestSimulateGivesEachCellPrivatePredictors(t *testing.T) {
	suite := bench.Sized(1000)[:4]
	cache := tracecache.New(0)
	var mu sync.Mutex
	seen := map[predictor.IndirectPredictor]bool{}
	results := New(4).SimulateBlocks(cache, suite, func() []predictor.IndirectPredictor {
		p, _ := bench.NewPredictor("BTB")
		return []predictor.IndirectPredictor{p}
	})
	for _, r := range results {
		mu.Lock()
		if seen[r.Preds[0]] {
			t.Error("predictor instance shared between cells")
		}
		seen[r.Preds[0]] = true
		mu.Unlock()
		if len(r.Counters) != 1 || r.Counters[0].Predictor != "BTB" {
			t.Errorf("run %s: counters %v", r.Config.String(), r.Counters)
		}
		if r.Counters[0].Lookups == 0 {
			t.Errorf("run %s: no lookups recorded", r.Config.String())
		}
	}
}

func TestSimulateEmptySuite(t *testing.T) {
	res := New(4).SimulateBlocks(tracecache.New(0), nil, func() []predictor.IndirectPredictor { return nil })
	if len(res) != 0 {
		t.Errorf("empty suite returned %d results", len(res))
	}
}
