// Command benchmark is the repository's end-to-end and per-layer
// benchmark. It drives the simulator only through its public functions and
// the prediction service's HTTP API on a loopback listener, generates all
// load from this process with at most two goroutines and connections, and
// checks every output it times. Build and run it from the repository root:
//
//	bash benchmark/run.sh --workload grid --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// -trace 0, the per-layer metrics of a traced run with -trace 1. See
// README.md for the workloads, the metrics and the seed policy.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sync"

	"repro/internal/bench"
)

// config sizes one benchmark run. Flags set the seed, the seconds and
// tracing; the rest define the workloads, which the smoke test shrinks.
type config struct {
	seed    uint64
	seconds float64
	// clients is the number of load-generating goroutines and connections,
	// and the grid's worker-pool width.
	clients int
	// setups is how often each workload sets up; setup_s is the median.
	setups int

	gridEvents    int
	uploadEvents  int
	sessionEvents int
	probeEvents   int
	// diffRecords is how much of each grid run the naive reference
	// predictors replay; chunkRecords is the size of a predict request.
	diffRecords  int
	chunkRecords int

	// corruptExpected makes one expected upload counter wrong, so the
	// smoke test can see the checks fail.
	corruptExpected bool
}

func defaultConfig() config {
	return config{
		seed:          1,
		seconds:       30,
		clients:       min(2, runtime.NumCPU()),
		setups:        3,
		gridEvents:    bench.DefaultEvents,
		uploadEvents:  20_000,
		sessionEvents: 4_000,
		probeEvents:   20_000,
		diffRecords:   4096,
		chunkRecords:  512,
	}
}

// outcome is what one workload run measured and found.
type outcome struct {
	workload  string
	attempted int
	failed    int
	problems  []string
	// metrics are the end-to-end metrics; layer the per-layer metrics the
	// run measured.
	metrics map[string]stat
	layer   map[string]float64
	trace   *tracer
	heap    heapWatch
	// opMS splits a traced run's op latencies, in ms, into untraced [0]
	// and traced [1] ops, for the tracing overhead.
	opMS [2][]float64
}

func newOutcome(name string, tr *tracer) *outcome {
	return &outcome{workload: name, metrics: map[string]stat{}, layer: map[string]float64{}, trace: tr}
}

// maxProblems bounds the failure descriptions kept for printing.
const maxProblems = 10

// fail counts one failed op or check.
func (o *outcome) fail(problem string) {
	o.failed++
	if len(o.problems) < maxProblems {
		o.problems = append(o.problems, o.workload+": "+problem)
	}
}

// absorb adds another run's ops and failures to o.
func (o *outcome) absorb(p *outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.problems = append(o.problems, p.problems...)
}

// tracerFor returns the tracer for op k. A traced run traces every other
// op, so traced and untraced ops interleave and the tracing overhead
// compares ops measured under the same host conditions.
func (o *outcome) tracerFor(k int64) *tracer {
	if k%2 == 1 {
		return o.trace
	}
	return nil
}

// noteOp files an op's latency by whether it was traced.
func (o *outcome) noteOp(traced bool, ms float64) {
	if traced {
		o.opMS[1] = append(o.opMS[1], ms)
	} else {
		o.opMS[0] = append(o.opMS[0], ms)
	}
}

// noteRuntime records the runtime's allocation and GC cost over ops.
func (o *outcome) noteRuntime(before, after runtimeSample, ops int) {
	o.layer["runtime.alloc_mb_per_op"] = (after.allocBytes - before.allocBytes) / 1e6 / float64(max(ops, 1))
	o.layer["runtime.gc_cpu_frac"] = 0
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		o.layer["runtime.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / cpu
	}
}

// heapWatch collects heap-in-use samples taken between ops.
type heapWatch struct {
	mu      sync.Mutex
	samples []float64
}

func (h *heapWatch) sample() {
	v := heapMB()
	h.mu.Lock()
	h.samples = append(h.samples, v)
	h.mu.Unlock()
}

// peak is the largest sample with the samples' quartiles.
func (h *heapWatch) peak() stat {
	h.mu.Lock()
	defer h.mu.Unlock()
	return summarize(h.samples, 1)
}

// workloads maps each workload name to its run function; order is the
// order -workload all runs them in.
var (
	workloads = map[string]func(config, *tracer) (*outcome, error){
		"grid":     runGrid,
		"upload":   runUpload,
		"sessions": runSessions,
	}
	order = []string{"grid", "upload", "sessions"}
)

// probeSeconds is how long a traced run measures each workload it was not
// asked for, to fill in the per-layer metrics only that workload measures.
const probeSeconds = 2

// runTraced is a traced run of one workload, every other op traced. Short
// traced runs of the other workloads and the layer probes supply the
// per-layer metrics this workload does not exercise, so every traced run
// prints every per-layer metric. It returns the merged outcome and every
// traced outcome, for the spans file.
func runTraced(name string, c config) (*outcome, []*outcome, error) {
	o, err := workloads[name](c, newTracer())
	if err != nil {
		return nil, nil, err
	}
	traced := []*outcome{o}
	probe := c
	probe.seconds, probe.setups = min(probeSeconds, c.seconds), 1
	for _, other := range order {
		if other == name {
			continue
		}
		p, err := workloads[other](probe, newTracer())
		if err != nil {
			return nil, nil, err
		}
		traced = append(traced, p)
		o.absorb(p)
		for k, v := range p.layer { //lint:sorted copying into a map; order cannot matter
			if _, ok := o.layer[k]; !ok {
				o.layer[k] = v
			}
		}
	}
	if err := layerProbes(c, o.layer); err != nil {
		return nil, nil, err
	}
	o.layer["tracing.coverage"] = o.trace.times().coverage()
	o.layer["tracing.overhead_pct"] = 100 * (median(o.opMS[1])/median(o.opMS[0]) - 1)
	return o, traced, nil
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints per workload.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// resultOf selects the declared metrics from an outcome.
func resultOf(o *outcome, traced bool) (result, error) {
	r := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]value{}}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, m := range defs {
		v, ok := o.layer[m.Name]
		if !traced {
			var st stat
			st, ok = o.metrics[m.Name]
			v = st.Value
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("%s: metric %s was not measured", o.workload, m.Name)
		}
		r.Metrics[m.Name] = value{v, m.Unit}
	}
	return r, nil
}

func main() {
	os.Exit(run(defaultConfig(), os.Args[1:], os.Stdout, os.Stderr))
}

// run parses flags over the defaults in c, runs the selected workloads
// and prints one result line per workload. It returns the exit code.
func run(c config, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: grid, upload, sessions or all")
	fs.Uint64Var(&c.seed, "seed", c.seed, "input seed: 0 is the paper's suite, 1 the default, 2 is held out for confirming claims")
	fs.Float64Var(&c.seconds, "seconds", c.seconds, "seconds each workload measures")
	traceFlag := fs.Int("trace", 0, "1 makes a traced run that prints the per-layer metrics")
	spansPath := fs.String("spans", "", "with -trace 1, write every span to this JSON file")
	outPath := fs.String("out", "", "append a record of each run to this JSON file")
	compare := fs.Bool("compare", false, "compare two run-record files: -compare base.json change.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareRecords(fs.Args(), stdout, stderr)
	}
	names := []string{*name}
	if *name == "all" {
		names = order
	}
	traced := *traceFlag == 1
	if _, ok := workloads[names[0]]; !ok || fs.NArg() > 0 || (!traced && *traceFlag != 0) ||
		(!traced && *spansPath != "") || c.seconds <= 0 {
		fs.Usage()
		return 2
	}

	var spanned []*outcome
	for _, n := range names {
		t0 := now()
		var o *outcome
		var err error
		if traced {
			var ts []*outcome
			o, ts, err = runTraced(n, c)
			spanned = append(spanned, ts...)
		} else {
			o, err = workloads[n](c, nil)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", n, err)
			return 1
		}
		elapsed := now().Sub(t0).Seconds()
		r, err := resultOf(o, traced)
		if err == nil && *outPath != "" {
			err = appendRecord(*outPath, newRecord(o, c, traced, elapsed))
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		for _, p := range o.problems {
			fmt.Fprintln(stderr, "FAILED", p)
		}
		line, err := json.Marshal(r)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	if *spansPath != "" {
		if err := writeSpans(*spansPath, spanned); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return 0
}
