package main

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/bench"
	"repro/internal/predictor"
	"repro/internal/ras"
	"repro/internal/sim"
	"repro/internal/state"
	"repro/internal/trace"
	"repro/internal/workload"
)

// probeRuns are the runs the layer probes time each layer on alone: a C
// compiler, a C++ ray tracer and the most regular dispatcher.
var probeRuns = []string{"gcc.cp", "eon", "photon"}

// probeReps is how often each layer probe repeats; it reports the median.
const probeReps = 3

// timeMedian runs fn reps times and returns the median duration.
func timeMedian(reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := now()
		fn()
		ds[i] = float64(now().Sub(t0))
	}
	return time.Duration(median(ds))
}

func newPredictor(name string) predictor.IndirectPredictor {
	p, _ := bench.NewPredictor(name) // names come from bench.PredictorNames
	return p
}

// layerProbes times each layer alone on the seeded probe runs: generation,
// block conversion, IBT2 decode, the RAS, and every predictor family alone
// in its own engine through the block, record and per-record-predicted
// paths, plus each family's state save and load.
func layerProbes(c config, layer map[string]float64) error {
	var cfgs []workload.Config
	for _, cfg := range seededSuite(c.seed, c.probeEvents) {
		if slices.Contains(probeRuns, cfg.String()) {
			cfgs = append(cfgs, cfg)
		}
	}
	runs := make([][]trace.Record, len(cfgs))
	gen := timeMedian(probeReps, func() {
		for i, cfg := range cfgs {
			runs[i], _ = cfg.Records()
		}
	})
	n := 0
	for _, recs := range runs {
		n += len(recs)
	}
	perRec := func(d time.Duration) float64 { return float64(d) / float64(n) }
	layer["workload.gen_ns_per_rec"] = perRec(gen)

	blocks := make([][]trace.Block, len(runs))
	layer["trace.blocks_ns_per_rec"] = perRec(timeMedian(probeReps, func() {
		for i, recs := range runs {
			blocks[i] = trace.Blocks(recs)
		}
	}))

	bodies := make([][]byte, len(runs))
	for i, recs := range runs {
		body, err := encodeIBT2(recs)
		if err != nil {
			return err
		}
		bodies[i] = body
	}
	var decodeErr error
	layer["trace.decode_ns_per_rec"] = perRec(timeMedian(probeReps, func() {
		for _, body := range bodies {
			if err := drain(body); err != nil {
				decodeErr = err
			}
		}
	}))
	if decodeErr != nil {
		return fmt.Errorf("decoding probe runs: %w", decodeErr)
	}

	layer["ras.block_ns_per_rec"] = perRec(timeMedian(probeReps, func() {
		s := ras.New(64)
		for _, blks := range blocks {
			for i := range blks {
				s.ProcessBlock(&blks[i])
			}
		}
	}))

	for _, f := range bench.PredictorNames() {
		layer["sim.block_ns_per_rec."+f] = perRec(timeMedian(probeReps, func() {
			for _, blks := range blocks {
				sim.New(newPredictor(f)).ProcessBlocks(blks)
			}
		}))
		layer["sim.record_ns_per_rec."+f] = perRec(timeMedian(probeReps, func() {
			for _, recs := range runs {
				sim.New(newPredictor(f)).ProcessAll(recs)
			}
		}))
		var trained *sim.Engine
		layer["sim.predicted_ns_per_rec."+f] = perRec(timeMedian(probeReps, func() {
			for _, recs := range runs {
				trained = sim.New(newPredictor(f))
				for _, r := range recs {
					trained.ProcessPredicted(r)
				}
			}
		}))
		if err := stateProbe(f, trained, layer); err != nil {
			return err
		}
	}
	return nil
}

// drain decodes an IBT2 body record by record.
func drain(body []byte) error {
	r, err := trace.NewReader(bytes.NewReader(body))
	if err != nil {
		return err
	}
	for {
		if _, err := r.Read(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// stateSnapshots is how many saves and loads the state probe times.
const stateSnapshots = 21

// stateProbe times saving a trained engine of family f and loading the
// snapshot into a fresh one, with pooled buffers as the service uses them.
func stateProbe(f string, trained *sim.Engine, layer map[string]float64) error {
	w := state.NewWriter()
	var data []byte
	save := timeMedian(stateSnapshots, func() { data = state.Save(trained, w) })
	fresh := sim.New(newPredictor(f))
	var r state.Reader
	var loadErr error
	load := timeMedian(stateSnapshots, func() {
		if err := state.Load(fresh, &r, data); err != nil {
			loadErr = err
		}
	})
	if loadErr != nil {
		return fmt.Errorf("loading a %s snapshot: %w", f, loadErr)
	}
	layer["state.save_us."+f] = float64(save) / 1e3
	layer["state.load_us."+f] = float64(load) / 1e3
	layer["state.bytes."+f] = float64(len(data))
	return nil
}
