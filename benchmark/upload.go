package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

const (
	// uploadLimit is the upload latency limit: a failed upload counts as
	// taking at least this long.
	uploadLimit = 250 * time.Millisecond
	// steadyRate and peakRate are the open loop's two rates, in uploads
	// per second, below the reference host's capacity of about 64/s.
	steadyRate = 20
	peakRate   = 45
)

// uploadEnv is the upload workload's set-up: the seeded runs pre-encoded
// as IBT2 bodies and the service they are uploaded to.
type uploadEnv struct {
	lb      *loopback
	names   []string
	bodies  [][]byte
	records []uint64
	want    [][]stats.Counters
}

// encodeIBT2 encodes records as one IBT2 stream.
func encodeIBT2(recs []trace.Record) ([]byte, error) {
	var b bytes.Buffer
	w, err := trace.NewWriter(&b)
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// newUploadEnv generates and encodes the bodies and boots the service.
// Expected counters are computed separately, outside set-up time.
func newUploadEnv(c config) (*uploadEnv, [][]trace.Record, error) {
	env := &uploadEnv{}
	var runs [][]trace.Record
	for _, cfg := range seededSuite(c.seed, c.uploadEvents) {
		recs, _ := cfg.Records()
		body, err := encodeIBT2(recs)
		if err != nil {
			return nil, nil, fmt.Errorf("encoding %s: %w", cfg, err)
		}
		env.names = append(env.names, cfg.String())
		env.bodies = append(env.bodies, body)
		env.records = append(env.records, uint64(len(recs)))
		runs = append(runs, recs)
	}
	lb, err := startLoopback(c.clients)
	if err != nil {
		return nil, nil, err
	}
	env.lb = lb
	return env, runs, nil
}

// upload sends body k and returns the simulated cell the service replied
// with.
func (env *uploadEnv) upload(k int, buf *bytes.Buffer) (serve.CellResult, error) {
	path := "/v1/jobs?suite=fig6&label=" + env.names[k]
	code, err := env.lb.do(http.MethodPost, path, "application/x-ibt2", env.bodies[k], buf)
	if err != nil {
		return serve.CellResult{}, err
	}
	if code != http.StatusOK {
		return serve.CellResult{}, statusError("upload "+env.names[k], code, buf)
	}
	var cell *serve.CellResult
	dec := json.NewDecoder(buf)
	for {
		var ev serve.Event
		err := dec.Decode(&ev)
		if err == io.EOF {
			break
		}
		if err != nil {
			return serve.CellResult{}, fmt.Errorf("upload %s: decoding reply: %w", env.names[k], err)
		}
		switch {
		case ev.Type == "cell" && ev.Cell != nil:
			cell = ev.Cell
		case ev.Type == "done" && ev.State != serve.StateDone:
			return serve.CellResult{}, fmt.Errorf("upload %s: job ended %s: %s", env.names[k], ev.State, ev.Error)
		}
	}
	if cell == nil {
		return serve.CellResult{}, fmt.Errorf("upload %s: reply has no cell", env.names[k])
	}
	return *cell, nil
}

// check compares a reply with sim.Run on the same records.
func (env *uploadEnv) check(k int, cell serve.CellResult) error {
	want := env.want[k]
	if cell.Records != env.records[k] || len(cell.Predictors) != len(want) {
		return fmt.Errorf("upload %s: %d records, %d predictors; want %d, %d",
			env.names[k], cell.Records, len(cell.Predictors), env.records[k], len(want))
	}
	for i, p := range cell.Predictors {
		if got := p.Counters(); got != want[i] {
			return fmt.Errorf("upload %s: %v, want %v", env.names[k], got, want[i])
		}
	}
	return nil
}

// send uploads body k and checks the reply, returning how long the upload
// took and the records it carried.
func (env *uploadEnv) send(k int, buf *bytes.Buffer, tr *tracer, op int64) (time.Duration, uint64, error) {
	k %= len(env.bodies)
	root := tr.begin("upload.request", 0, op)
	s := tr.begin("serve.upload", root, op)
	t0 := now()
	cell, err := env.upload(k, buf)
	d := now().Sub(t0)
	tr.end(s)
	tr.end(root)
	if err == nil {
		err = env.check(k, cell)
	}
	return d, env.records[k], err
}

// sent is one request: how late the generator sent it, how long it took
// from when it was sent and from when it was due, the records it carried,
// whether it was traced and whether it succeeded.
type sent struct {
	late, took, latency time.Duration
	records             uint64
	traced              bool
	err                 error
}

// openLoop sends uploads on a fixed uniform schedule at rate per second
// for dur, from clients goroutines sharing the schedule: each takes the
// next due request, so a stalled request delays later ones and its wait
// counts in their latency.
func (env *uploadEnv) openLoop(o *outcome, rate float64, dur time.Duration, clients int, first int64) []sent {
	n := max(int(rate*dur.Seconds()), 1)
	out := make([]sent, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				if wait := due.Sub(now()); wait > 0 {
					time.Sleep(wait)
				}
				late := now().Sub(due)
				op := first + int64(k)
				t := o.tracerFor(op)
				d, recs, err := env.send(k, &buf, t, op)
				out[k] = sent{late: late, took: d, latency: late + d, records: recs, traced: t != nil, err: err}
				o.heap.sample()
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop has every client upload back to back for dur. It returns the
// requests and the seconds they took.
func (env *uploadEnv) closedLoop(o *outcome, dur time.Duration, clients int, first int64) ([]sent, float64) {
	var next atomic.Int64
	var mu sync.Mutex
	var out []sent
	var wg sync.WaitGroup
	start := now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for now().Sub(start) < dur {
				op := first + next.Add(1) - 1
				t := o.tracerFor(op)
				d, recs, err := env.send(int(op), &buf, t, op)
				o.heap.sample()
				mu.Lock()
				out = append(out, sent{took: d, latency: d, records: recs, traced: t != nil, err: err})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, now().Sub(start).Seconds()
}

// latencies turns open-loop requests into latency samples in ms, a failed
// request counting as at least the latency limit.
func latencies(reqs []sent) []float64 {
	out := make([]float64, len(reqs))
	for i, r := range reqs {
		d := r.latency
		if r.err != nil {
			d = max(d, uploadLimit)
		}
		out[i] = float64(d) / 1e6
	}
	return out
}

// runUpload is the served trace-upload workload: an open loop at a steady
// rate, then at a peak rate, then a closed loop at saturation, each
// request the upload of one seeded run's IBT2 trace simulated by the
// Figure 6 line-up while the body streams in.
func runUpload(c config, tr *tracer) (*outcome, error) {
	o := newOutcome("upload", tr)
	var env *uploadEnv
	var runs [][]trace.Record
	setups := make([]float64, c.setups)
	for i := range setups {
		if env != nil {
			if err := env.lb.close(); err != nil {
				return nil, err
			}
		}
		t0 := now()
		var err error
		env, runs, err = newUploadEnv(c)
		if err != nil {
			return nil, err
		}
		setups[i] = now().Sub(t0).Seconds()
		env.want = make([][]stats.Counters, len(runs))
		for k, recs := range runs {
			env.want[k] = sim.Run(recs, bench.Figure6Predictors()...)
		}
		if c.corruptExpected {
			env.want[0][0].Correct++
		}
		t0 = now()
		var buf bytes.Buffer
		for k := 0; k < 2*c.clients; k++ {
			o.attempted++
			if _, _, err := env.send(k, &buf, nil, 0); err != nil {
				o.fail("warm-up: " + err.Error())
			}
		}
		setups[i] += now().Sub(t0).Seconds()
	}
	defer func() { _ = env.lb.close() }()

	phase := func(share float64) time.Duration {
		return time.Duration(share * c.seconds * float64(time.Second))
	}
	before := readRuntime()
	steady := env.openLoop(o, steadyRate, phase(0.3), c.clients, 1)
	peakOps := env.openLoop(o, peakRate, phase(0.3), c.clients, int64(len(steady))+1)
	sat, satSeconds := env.closedLoop(o, phase(0.4), c.clients, int64(len(steady)+len(peakOps))+1)
	o.noteRuntime(before, readRuntime(), len(steady)+len(peakOps)+len(sat))

	var late, took []float64
	var satRecords uint64
	for i, reqs := range [][]sent{steady, peakOps, sat} {
		o.attempted += len(reqs)
		for _, r := range reqs {
			took = append(took, float64(r.took)/1e6)
			switch {
			case r.err != nil:
				o.fail(r.err.Error())
			case i == 2:
				satRecords += r.records
			}
			if i < 2 {
				late = append(late, float64(r.late)/1e6)
			}
		}
	}

	stLat := latencies(steady)
	for _, r := range steady {
		o.noteOp(r.traced, float64(r.took)/1e6)
	}
	o.metrics["setup_s"] = summarize(setups, 0.5)
	o.metrics["latency_ms.p50"] = summarize(stLat, 0.5)
	o.layer["loadgen.latency_ms.p90"] = summarize(stLat, 0.9).Value
	o.metrics["records_per_s"] = one(float64(satRecords) / satSeconds)
	o.metrics["heap_mb.peak"] = o.heap.peak()
	pk := latencies(peakOps)
	o.layer["loadgen.peak_latency_ms.p50"] = summarize(pk, 0.5).Value
	o.layer["loadgen.peak_latency_ms.p90"] = summarize(pk, 0.9).Value
	o.layer["loadgen.late_ms.p95"] = summarize(late, 0.95).Value
	// The service's job latency is its in-process decode and simulation of
	// the same bodies, over the same requests.
	st := env.lb.srv.Stats()
	o.layer["serve.upload_overhead_ms.p50"] = median(took) - st.LatencyP50MS
	o.layer["serve.rejected"] = float64(st.Rejected)
	return o, nil
}
