package main

import (
	"bytes"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/state"
	"repro/internal/trace"
)

// The warmstart experiment proves the snapshot/restore contract on the
// paper's headline predictor (PPM-hyb): a predictor restored from a snapshot
// continues exactly as one that never stopped, down to the serialized bytes
// of its final state. Three modes share the runner:
//
//   - default: for every suite run, cut the trace at its midpoint, snapshot,
//     restore into a fresh engine, finish on the restored engine, and compare
//     final snapshots against the uncut run;
//   - -savestate FILE: simulate the first half of the first selected run and
//     write the snapshot to FILE;
//   - -warmstart FILE: restore FILE into a fresh engine, finish the same
//     run, and compare against an uncut local run — pairing the two flags
//     across separate processes proves the bytes carry everything.
func printWarmstart(e *env) {
	switch {
	case e.savestate != "":
		saveWarmstart(e)
	case e.warmstart != "":
		runWarmstart(e)
	default:
		printWarmstartDemo(e)
	}
}

func newHybEngine() *sim.Engine { return sim.New(core.PaperHyb()) }

// warmstartRun picks the trace the cross-process modes operate on: the first
// run of the (possibly -run filtered) suite, its cached blocks, its cut
// point and its record count.
func (e *env) warmstartRun() (name string, blks []trace.Block, half, n int) {
	if len(e.suite) == 0 {
		fmt.Fprintln(os.Stderr, "experiments: -run filter matched no runs")
		os.Exit(2)
	}
	cfg := e.suite[0]
	blks, sum := e.cache.GetBlocks(cfg)
	return cfg.String(), blks, int(sum.Records) / 2, int(sum.Records)
}

// replay feeds records [from, to) of blks to eng, one Process call per
// record: the record engine that state.Save and state.Load are held to.
func replay(eng *sim.Engine, blks []trace.Block, from, to int) {
	base := 0
	for bi := range blks {
		b := &blks[bi]
		for k := max(from-base, 0); k < b.Len() && base+k < to; k++ {
			eng.Process(b.Record(k))
		}
		base += b.Len()
	}
}

func saveWarmstart(e *env) {
	name, blks, half, n := e.warmstartRun()
	eng := newHybEngine()
	replay(eng, blks, 0, half)
	data := state.SaveBytes(eng)
	if err := os.WriteFile(e.savestate, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	fmt.Fprintf(e.out, "Warm start: saved PPM-hyb state after %d/%d records of %s -> %s (%d bytes)\n\n",
		half, n, name, e.savestate, len(data))
}

func runWarmstart(e *env) {
	name, blks, half, n := e.warmstartRun()
	data, err := os.ReadFile(e.warmstart)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	eng := newHybEngine()
	if err := state.LoadBytes(eng, data); err != nil {
		fmt.Fprintln(os.Stderr, "experiments: restore:", err)
		os.Exit(1)
	}
	replay(eng, blks, half, n)

	full := newHybEngine()
	replay(full, blks, 0, n)
	match := bytes.Equal(state.SaveBytes(eng), state.SaveBytes(full))
	fmt.Fprintf(e.out, "Warm start: %s restored from %s at record %d/%d\n",
		name, e.warmstart, half, n)
	fmt.Fprintf(e.out, "  restored continuation: %s mispredict, uncut run: %s\n",
		report.Pct(eng.Counters()[0].MispredictionRatio()),
		report.Pct(full.Counters()[0].MispredictionRatio()))
	if !match {
		fmt.Fprintln(e.out, "  final state: DIVERGED")
		os.Exit(1)
	}
	fmt.Fprintf(e.out, "  final state: byte-identical (%d bytes)\n\n", len(state.SaveBytes(full)))
}

func printWarmstartDemo(e *env) {
	type row struct {
		name      string
		ratio     float64
		snapBytes int
		cut, n    int
		match     bool
	}
	rows := make([]row, len(e.suite))
	e.pool.Map(len(e.suite), func(i int) {
		blks, sum := e.cache.GetBlocks(e.suite[i])
		n := int(sum.Records)
		half := n / 2

		full := newHybEngine()
		replay(full, blks, 0, n)

		pre := newHybEngine()
		replay(pre, blks, 0, half)
		snap := state.SaveBytes(pre)
		cont := newHybEngine()
		match := state.LoadBytes(cont, snap) == nil
		if match {
			replay(cont, blks, half, n)
			match = bytes.Equal(state.SaveBytes(cont), state.SaveBytes(full))
		}
		rows[i] = row{
			name: e.suite[i].String(), ratio: full.Counters()[0].MispredictionRatio(),
			snapBytes: len(snap), cut: half, n: n, match: match,
		}
	})

	t := report.NewTable("Warm start: PPM-hyb snapshot/restore at the trace midpoint",
		"run", "cut", "snapshot B", "mispredict", "continuation")
	diverged := false
	for _, r := range rows {
		verdict := "byte-identical"
		if !r.match {
			verdict, diverged = "DIVERGED", true
		}
		t.AddRowf(r.name, fmt.Sprintf("%d/%d", r.cut, r.n), r.snapBytes,
			report.Pct(r.ratio), verdict)
	}
	t.Render(e.out)
	fmt.Fprintln(e.out)
	if diverged {
		os.Exit(1)
	}
}
