package main

import (
	"bytes"
	"io"
	"os"
	"testing"

	"repro/internal/bench"
	"repro/internal/sched"
	"repro/internal/tracecache"
)

// renderExperiments runs the named registry entries into w under the given
// worker count and trace cache, at the given per-run event count.
func renderExperiments(w io.Writer, names []string, workers int, cache *tracecache.Cache, events int) {
	e := &env{
		out:   w,
		suite: bench.Sized(events),
		cache: cache,
		pool:  sched.New(workers),
	}
	for _, n := range names {
		for _, ex := range experiments {
			if ex.name == n {
				ex.run(e)
			}
		}
	}
}

// TestParallelDeterminism is the scheduler's core guarantee: output is
// byte-identical at every worker count, and every suite trace is generated
// exactly once per process regardless of how many analyses consume it.
func TestParallelDeterminism(t *testing.T) {
	const events = 3000
	names := []string{"fig6", "oracle"}
	suiteLen := uint64(len(bench.Sized(events)))

	var serial bytes.Buffer
	renderExperiments(&serial, names, 1, tracecache.New(0), events)
	if serial.Len() == 0 {
		t.Fatal("serial run produced no output")
	}

	for _, workers := range []int{2, 8} {
		cache := tracecache.New(0)
		var par bytes.Buffer
		renderExperiments(&par, names, workers, cache, events)
		if !bytes.Equal(serial.Bytes(), par.Bytes()) {
			t.Errorf("workers=%d: output differs from serial run\n--- serial ---\n%s\n--- workers=%d ---\n%s",
				workers, serial.String(), workers, par.String())
		}
		st := cache.Stats()
		if st.Generated != suiteLen {
			t.Errorf("workers=%d: generated %d traces, want %d (each suite run exactly once)",
				workers, st.Generated, suiteLen)
		}
		if st.Hits != suiteLen {
			t.Errorf("workers=%d: cache hits = %d, want %d (second analysis recalls every run)",
				workers, st.Hits, suiteLen)
		}
	}
}

// TestDisabledCacheMatchesSerial pins a cache that keeps nothing resident to
// the cached serial output: under a 1-byte budget every trace is oversize,
// so each analysis regenerates every run it reads, at any worker count.
func TestDisabledCacheMatchesSerial(t *testing.T) {
	const events = 2000
	names := []string{"fig6", "oracle"}
	suiteLen := uint64(len(bench.Sized(events)))

	var cached, uncached bytes.Buffer
	renderExperiments(&cached, names, 1, tracecache.New(0), events)
	none := tracecache.New(1)
	renderExperiments(&uncached, names, 4, none, events)
	if !bytes.Equal(cached.Bytes(), uncached.Bytes()) {
		t.Errorf("no-residency output at -j 4 differs from cached serial output\n--- cached ---\n%s\n--- no residency ---\n%s",
			cached.String(), uncached.String())
	}
	st := none.Stats()
	if st.Generated != 2*suiteLen || st.Entries != 0 {
		t.Errorf("no-residency cache: generated %d traces with %d resident, want %d with 0 (every analysis regenerates)",
			st.Generated, st.Entries, 2*suiteLen)
	}
}

// TestOnePassPerExperiment pins each registry entry to one pass over the
// suite: run alone on a fresh cache, an entry that reads traces reads each
// run exactly once, however many predictors or sweep points it evaluates,
// and fig1 and budget read none.
func TestOnePassPerExperiment(t *testing.T) {
	const events = 2000
	suiteLen := uint64(len(bench.Sized(events)))
	for _, ex := range experiments {
		want := suiteLen
		if ex.name == "fig1" || ex.name == "budget" {
			want = 0
		}
		cache := tracecache.New(0)
		renderExperiments(io.Discard, []string{ex.name}, 2, cache, events)
		if st := cache.Stats(); st.Hits+st.Misses != want {
			t.Errorf("%s: %d trace reads (hits %d + misses %d), want %d",
				ex.name, st.Hits+st.Misses, st.Hits, st.Misses, want)
		}
	}
}

// TestBlockEngineMatchesRecordEngine pins every registry entry to the bytes
// of the record-at-a-time engine: testdata/all-ext-2000.golden is
// `experiments -all -ext -events 2000 -j 1` as rendered by that engine,
// which the block engine replaced. The block engine must reproduce it at
// every worker count.
func TestBlockEngineMatchesRecordEngine(t *testing.T) {
	want, err := os.ReadFile("testdata/all-ext-2000.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		var got bytes.Buffer
		renderExperiments(&got, allExperimentNames(), workers, tracecache.New(0), 2000)
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("-j %d differs from the golden record-engine output\n--- want ---\n%s\n--- got ---\n%s",
				workers, want, got.Bytes())
		}
	}
}

// allExperimentNames returns every registry entry in canonical order.
func allExperimentNames() []string {
	names := make([]string, 0, len(experiments))
	for _, ex := range experiments {
		names = append(names, ex.name)
	}
	return names
}
