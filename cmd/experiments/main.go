// Command experiments regenerates every table and figure of the paper's
// evaluation from the synthetic benchmark suite. Each analysis is a named
// entry in the experiment registry (registry.go); run one or more by flag or
// by positional name:
//
//	experiments -list          show every registered experiment and exit
//	experiments -fig6          regenerate Figure 6
//	experiments fig6 oracle    same experiments, selected positionally
//	experiments -all           every paper experiment (Tables 1, Figs 1/6/7,
//	                           component and oracle analyses)
//	experiments -ext           every extension experiment
//
// -events scales the per-run dispatch count; -run restricts to runs whose
// name contains the given substring. Output always follows the registry's
// canonical order regardless of how experiments were selected.
//
// The grid is evaluated by a deterministic parallel runner: -j sets the
// worker count (default GOMAXPROCS; -j 1 is the exact serial path), every
// (run × predictor-set) cell simulates on a private engine, and each suite
// trace is generated at most once per process through the shared trace
// cache (-cachemb bounds its memory). Output is byte-identical at every -j.
//
// Cells replay through the batched block engine: traces are pre-decoded
// once into columnar blocks (cached alongside the records) and each
// predictor consumes a whole block per virtual call, with index lanes
// letting most predictors skip straight to the records they observe. The
// output is pinned byte for byte to the record-at-a-time engine's by
// testdata/all-ext-2000.golden and the ppmcheck blocks-vs-records suite.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"repro/internal/bench"
	"repro/internal/condbr"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/predictor"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/tracecache"
	"repro/internal/workload"
)

// env is the execution context an experiment runs in: where to render, the
// suite to evaluate, the shared trace cache, and the worker pool. Tests
// build their own env around a buffer to compare outputs across -j values.
type env struct {
	out   io.Writer
	suite []workload.Config
	cache *tracecache.Cache
	pool  *sched.Pool
	// savestate/warmstart switch the warmstart experiment into its
	// cross-process modes: write a mid-trace PPM-hyb snapshot to a file, or
	// restore one and prove byte-identical continuation (see warmstart.go).
	savestate string
	warmstart string
}

// simulate runs every suite config through a fresh instance of the
// predictor set, sharding cells across the pool; results arrive in suite
// order.
func (e *env) simulate(build func() []predictor.IndirectPredictor) []sched.Result {
	return e.pool.SimulateBlocks(e.cache, e.suite, build)
}

func main() {
	var (
		list       = flag.Bool("list", false, "list every registered experiment and exit")
		all        = flag.Bool("all", false, "run every paper experiment")
		ext        = flag.Bool("ext", false, "run every extension experiment")
		events     = flag.Int("events", bench.DefaultEvents, "MT dispatch events per run")
		runFilter  = flag.String("run", "", "restrict to runs whose name contains this substring")
		jobs       = flag.Int("j", runtime.GOMAXPROCS(0), "simulation workers (1 = exact serial path)")
		cacheMB    = flag.Int("cachemb", 512, "trace cache budget in MiB (0 = unlimited)")
		cacheStats = flag.Bool("cachestats", false, "print trace cache statistics to stderr after the run")
		savestate  = flag.String("savestate", "", "warmstart experiment: write a mid-trace PPM-hyb snapshot to this file")
		warmstart  = flag.String("warmstart", "", "warmstart experiment: restore this snapshot and verify byte-identical continuation")
	)
	selected := make(map[string]*bool, len(experiments))
	for _, ex := range experiments {
		if flag.Lookup(ex.name) != nil {
			// The experiment shares its name with a mode flag (warmstart's
			// -warmstart FILE): selection happens below, via that flag or
			// positionally.
			selected[ex.name] = new(bool)
			continue
		}
		selected[ex.name] = flag.Bool(ex.name, false, ex.group+": "+ex.doc)
	}
	flag.Parse()
	if *savestate != "" || *warmstart != "" {
		*selected["warmstart"] = true
	}

	if *list {
		for _, ex := range experiments {
			fmt.Printf("  %-14s %-10s %s\n", ex.name, ex.group, ex.doc)
		}
		return
	}

	for _, name := range flag.Args() {
		sel, ok := selected[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (see -list)\n", name)
			os.Exit(2)
		}
		*sel = true
	}
	any := false
	for _, ex := range experiments {
		if *all && ex.group == "paper" {
			*selected[ex.name] = true
		}
		if *ext && ex.group == "extension" {
			*selected[ex.name] = true
		}
		any = any || *selected[ex.name]
	}
	if !any {
		flag.Usage()
		os.Exit(2)
	}

	cache := tracecache.New(int64(*cacheMB) << 20)
	e := &env{
		out:       os.Stdout,
		suite:     filterRuns(bench.Sized(*events), *runFilter),
		cache:     cache,
		pool:      sched.New(*jobs),
		savestate: *savestate,
		warmstart: *warmstart,
	}
	for _, ex := range experiments {
		if *selected[ex.name] {
			ex.run(e)
		}
	}
	if *cacheStats {
		fmt.Fprintln(os.Stderr, "tracecache:", cache.Stats())
	}
}

func filterRuns(runs []workload.Config, substr string) []workload.Config {
	if substr == "" {
		return runs
	}
	var out []workload.Config
	for _, r := range runs {
		if strings.Contains(r.String(), substr) {
			out = append(out, r)
		}
	}
	return out
}

func printTable1(e *env) {
	// One parallel pass generates (or recalls) every run; rendering then
	// reads the captured summaries in suite order.
	sums := make([]workload.Summary, len(e.suite))
	e.pool.Map(len(e.suite), func(i int) {
		_, sums[i] = e.cache.GetBlocks(e.suite[i])
	})
	t := report.NewTable("Table 1: dynamic benchmark characteristics",
		"benchmark", "input", "instr (M)", "MT jsr+jmp", "static MT", "cond", "returns")
	for _, sum := range sums {
		t.AddRowf(sum.Name, sum.Input,
			fmt.Sprintf("%.1f", float64(sum.Instructions)/1e6),
			sum.MTDynamic, sum.MTStatic, sum.CondDynamic, sum.RetsDynamic)
	}
	t.Render(e.out)
	fmt.Fprintln(e.out)
}

func printFigure1(e *env) {
	fmt.Fprintln(e.out, "Figure 1: 3rd-order Markov predictor over input 01010110101")
	p := condbr.NewPPM(3)
	seq := "01010110101"
	for _, ch := range seq {
		p.Predict()
		p.Update(ch == '1')
	}
	m := p.Model(3)
	z, o := m.Counts(0b101) // history bits: most recent in bit 0 -> pattern 101
	fmt.Fprintf(e.out, "  state 101: next-bit counts 0:%d 1:%d\n", z, o)
	pred := p.Predict()
	bit := "0"
	if pred {
		bit = "1"
	}
	fmt.Fprintf(e.out, "  PPM prediction after sequence: %s (paper: 0)\n\n", bit)
}

func printMatrix(e *env, title string, preds func() []predictor.IndirectPredictor) {
	names := func() []string {
		var n []string
		for _, p := range preds() {
			n = append(n, p.Name())
		}
		return n
	}()
	t := report.NewTable(title, append([]string{"run"}, names...)...)
	perPred := make(map[string][]stats.Counters)
	for _, res := range e.simulate(preds) {
		row := []string{res.Config.String()}
		for _, c := range res.Counters {
			row = append(row, report.Pct(c.MispredictionRatio()))
			perPred[c.Predictor] = append(perPred[c.Predictor], c)
		}
		t.AddRow(row...)
	}
	avg := []string{"MEAN"}
	for _, n := range names {
		avg = append(avg, report.Pct(stats.MeanRatio(perPred[n])))
	}
	t.AddRow(avg...)
	t.Render(e.out)
	fmt.Fprintln(e.out)
}

func printComponents(e *env) {
	fmt.Fprintln(e.out, "Markov component access distribution (PPM-hyb)")
	results := e.simulate(func() []predictor.IndirectPredictor {
		return []predictor.IndirectPredictor{core.PaperHyb()}
	})
	for _, res := range results {
		p := res.Preds[0].(*core.PPM)
		st := p.Stats()
		var total, topAcc, topMiss, totalMiss uint64
		for i, a := range st.Accesses {
			total += a
			totalMiss += st.Misses[i]
		}
		topAcc = st.Accesses[p.Order()]
		topMiss = st.Misses[p.Order()]
		if total == 0 {
			continue
		}
		missShare := 0.0
		if totalMiss > 0 {
			missShare = 100 * float64(topMiss) / float64(totalMiss)
		}
		fmt.Fprintf(e.out, "  %-12s highest-order accesses: %5.1f%%  misses: %5.1f%%\n",
			res.Config.String(), 100*float64(topAcc)/float64(total), missShare)
	}
	fmt.Fprintln(e.out)
}

func printOracle(e *env) {
	fmt.Fprintln(e.out, "Oracle with complete PIB path history, path length 8")
	results := e.simulate(func() []predictor.IndirectPredictor {
		return []predictor.IndirectPredictor{oracle.New(8)}
	})
	for _, res := range results {
		o := res.Preds[0].(*oracle.Oracle)
		fmt.Fprintf(e.out, "  %-12s accuracy: %.2f%% (contexts: %d)\n",
			res.Config.String(), 100*res.Counters[0].Accuracy(), o.Contexts())
	}
	fmt.Fprintln(e.out)
}
