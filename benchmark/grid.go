package main

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/bench"
	"repro/internal/check"
	"repro/internal/predictor"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tracecache"
	"repro/internal/workload"
)

// gridCacheBytes is one pass's trace cache budget, the experiments
// command's default.
const gridCacheBytes = 512 << 20

// lineup is one predictor line-up the grid simulates on every run.
type lineup struct {
	title string
	build func() []predictor.IndirectPredictor
}

var lineups = []lineup{
	{"Figure 6: misprediction ratio (%)", bench.Figure6Predictors},
	{"Figure 7: PPM variants, misprediction ratio (%)", bench.Figure7Predictors},
	{"Modern predictors, misprediction ratio (%)", bench.ModernPredictors},
}

// seededSuite returns the paper's 14 runs at the given size with a
// splitmix of seed XORed into every run's seed. Seed 0 is the paper's
// suite exactly.
func seededSuite(seed uint64, events int) []workload.Config {
	suite := bench.Sized(events)
	if seed != 0 {
		x := workload.NewRNG(seed).Uint64()
		for i := range suite {
			suite[i].Seed ^= x
		}
	}
	return suite
}

// renderMatrix renders one line-up's counters as the experiments command
// renders a misprediction matrix: a row per run and a MEAN row.
func renderMatrix(b *strings.Builder, l lineup, suite []workload.Config, cells [][]stats.Counters) {
	names := make([]string, len(cells[0]))
	for j, c := range cells[0] {
		names[j] = c.Predictor
	}
	t := report.NewTable(l.title, append([]string{"run"}, names...)...)
	perPred := make([][]stats.Counters, len(names))
	for i, cfg := range suite {
		row := []string{cfg.String()}
		for j, c := range cells[i] {
			row = append(row, report.Pct(c.MispredictionRatio()))
			perPred[j] = append(perPred[j], c)
		}
		t.AddRow(row...)
	}
	mean := []string{"MEAN"}
	for j := range names {
		mean = append(mean, report.Pct(stats.MeanRatio(perPred[j])))
	}
	t.AddRow(mean...)
	t.Render(b)
	b.WriteString("\n")
}

// passInfo is what one grid pass produced and left resident.
type passInfo struct {
	text    string
	cache   tracecache.Stats
	records int
}

// gridPass is one op of the grid workload: a fresh trace cache and worker
// pool, every line-up simulated on every run through the block engine,
// and the three matrices rendered. Traced, it replicates
// sched.SimulateBlocks call by call so each layer gets its own span.
func gridPass(suite []workload.Config, workers int, tr *tracer, op int64) passInfo {
	root := tr.begin("grid.pass", 0, op)
	cache := tracecache.New(gridCacheBytes)
	pool := sched.New(workers)
	var b strings.Builder
	records := 0
	for li, l := range lineups {
		cells := make([][]stats.Counters, len(suite))
		runRecords := make([]uint64, len(suite))
		if tr == nil {
			for i, r := range pool.SimulateBlocks(cache, suite, l.build) {
				cells[i], runRecords[i] = r.Counters, r.Summary.Records
			}
		} else {
			tracedSimulate(cache, pool, suite, l, li == 0, cells, runRecords, tr, root, op)
		}
		for _, n := range runRecords {
			records += int(n)
		}
		s := tr.begin("report.render", root, op)
		renderMatrix(&b, l, suite, cells)
		tr.end(s)
	}
	tr.end(root)
	return passInfo{text: b.String(), cache: cache.Stats(), records: records}
}

// tracedSimulate is sched.SimulateBlocks with a span around each call. On
// a pass's first line-up every Get misses the fresh cache and generates the
// run, and every GetBlocks converts it; later line-ups hit.
func tracedSimulate(cache *tracecache.Cache, pool *sched.Pool, suite []workload.Config, l lineup, first bool,
	cells [][]stats.Counters, runRecords []uint64, tr *tracer, root int, op int64) {
	getName, blocksName := "tracecache.hit", "tracecache.hit"
	if first {
		getName, blocksName = "workload.generate", "trace.blocks"
	}
	m := tr.begin("sched.map", root, op)
	pool.Map(len(suite), func(i int) {
		cell := tr.begin("sched.cell", m, op)
		s := tr.begin(getName, cell, op)
		_, sum := cache.Get(suite[i])
		tr.end(s)
		s = tr.begin(blocksName, cell, op)
		blks, _ := cache.GetBlocks(suite[i])
		tr.end(s)
		s = tr.begin("sim.new", cell, op)
		e := sim.New(l.build()...)
		tr.end(s)
		s = tr.begin("sim.blocks", cell, op)
		e.ProcessBlocks(blks)
		tr.end(s)
		cells[i], runRecords[i] = e.Counters(), sum.Records
		tr.end(cell)
	})
	tr.end(m)
}

// gridReference renders the three matrices the simplest way: each run
// generated on its own and every line-up replayed through the record
// engine on one goroutine. It also replays each run's first diff records
// through every family and its naive reference predictor, returning the
// divergences found.
func gridReference(suite []workload.Config, diff int) (string, []string) {
	cells := make([][][]stats.Counters, len(lineups))
	for li := range cells {
		cells[li] = make([][]stats.Counters, len(suite))
	}
	var divergent []string
	for i, cfg := range suite {
		recs, _ := cfg.Records()
		for li, l := range lineups {
			cells[li][i] = sim.Run(recs, l.build()...)
		}
		head := recs[:min(len(recs), diff)]
		for _, f := range bench.PredictorNames() {
			if d, err := check.DiffFamily(f, head); err != nil || d != nil {
				divergent = append(divergent, fmt.Sprintf("%s on %s: %v %v", f, cfg, d, err))
			}
		}
	}
	var b strings.Builder
	for li, l := range lineups {
		renderMatrix(&b, l, suite, cells[li])
	}
	return b.String(), divergent
}

// runGrid is the batch experiment grid: a closed loop with one caller,
// each op a gridPass from a clean heap, as a fresh experiments process
// would run it. Set-up is a warm-up pass.
func runGrid(c config, tr *tracer) (*outcome, error) {
	suite := seededSuite(c.seed, c.gridEvents)
	o := newOutcome("grid", tr)
	var texts []string
	setups := make([]float64, c.setups)
	for i := range setups {
		runtime.GC()
		t0 := now()
		info := gridPass(suite, c.clients, nil, 0)
		setups[i] = now().Sub(t0).Seconds()
		texts = append(texts, info.text)
	}

	var lat, rates []float64
	var generated, hits, resident float64
	before := readRuntime()
	start := now()
	for op := int64(1); len(lat) == 0 || now().Sub(start).Seconds() < c.seconds; op++ {
		runtime.GC()
		t := o.tracerFor(op)
		t0 := now()
		info := gridPass(suite, c.clients, t, op)
		d := now().Sub(t0).Seconds()
		o.heap.sample()
		o.noteOp(t != nil, d*1e3)
		lat = append(lat, d*1e3)
		rates = append(rates, float64(info.records)/d)
		texts = append(texts, info.text)
		generated += float64(info.cache.Generated)
		hits += float64(info.cache.Hits)
		resident += float64(info.cache.Bytes) / 1e6
	}
	o.noteRuntime(before, readRuntime(), len(lat))

	ref, divergent := gridReference(suite, c.diffRecords)
	o.attempted = len(texts)
	for i, t := range texts {
		if t != ref {
			o.fail(fmt.Sprintf("grid pass %d: matrices differ from the serial record-engine reference", i))
		}
	}
	for _, d := range divergent {
		o.fail("naive reference divergence: " + d)
	}

	o.metrics["setup_s"] = summarize(setups, 0.5)
	o.metrics["latency_ms.p50"] = summarize(lat, 0.5)
	o.metrics["records_per_s"] = summarize(rates, 0.5)
	o.metrics["heap_mb.peak"] = o.heap.peak()
	passes := float64(len(lat))
	o.layer["tracecache.generated_per_pass"] = generated / passes
	o.layer["tracecache.hits_per_pass"] = hits / passes
	o.layer["tracecache.resident_mb"] = resident / passes
	if tr != nil {
		lt := tr.times()
		traced := float64(lt.count["grid.pass"])
		calls := lt.totalNS["workload.generate"] + lt.totalNS["trace.blocks"] + lt.totalNS["tracecache.hit"]
		o.layer["tracecache.call_ms_per_pass"] = float64(calls) / 1e6 / traced
		o.layer["report.render_ms_per_pass"] = float64(lt.totalNS["report.render"]) / 1e6 / traced
		busy := float64(lt.totalNS["sched.cell"])
		o.layer["sched.idle_frac"] = 1 - busy/(float64(c.clients)*float64(lt.totalNS["grid.pass"]))
	}
	return o, nil
}
