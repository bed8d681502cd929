package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"runtime"
	"strings"
	"text/tabwriter"
)

// host describes the machine a run was measured on.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
}

// cpuModel is the first "model name" in /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close() //lint:closeerr read-only; Close cannot lose data
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// recorded is one metric in a run record.
type recorded struct {
	stat
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// record is one run as -out stores it.
type record struct {
	Workload  string              `json:"workload"`
	Seed      uint64              `json:"seed"`
	Seconds   float64             `json:"seconds"`
	Traced    bool                `json:"traced"`
	Duration  float64             `json:"duration_s"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Host      host                `json:"host"`
	Metrics   map[string]recorded `json:"metrics"`
}

func newRecord(o *outcome, c config, traced bool, elapsed float64) record {
	r := record{
		Workload: o.workload, Seed: c.seed, Seconds: c.seconds, Traced: traced, Duration: elapsed,
		Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Host:    host{runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), cpuModel()},
		Metrics: map[string]recorded{},
	}
	if traced {
		for _, m := range perLayer {
			r.Metrics[m.Name] = recorded{one(o.layer[m.Name]), m.Unit, m.Better, 0}
		}
		return r
	}
	for _, m := range endToEnd {
		r.Metrics[m.Name] = recorded{o.metrics[m.Name], m.Unit, m.Better, m.Bound}
	}
	return r
}

// recordFile is the -out file: every run appended to it.
type recordFile struct {
	Runs []record `json:"runs"`
}

func readRecords(path string) (recordFile, error) {
	var rf recordFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// appendRecord adds r to the run-record file at path, creating it.
func appendRecord(path string, r record) error {
	rf, err := readRecords(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	rf.Runs = append(rf.Runs, r)
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// verdict applies the benchmark's rules to one metric on one workload,
// given each side's per-run values: a regression is a change median worse
// than the base median by more than the bound. Otherwise, where the base's
// quartile spread is wider than the bound the result is unresolved, unless
// every change run beats every base run; a gain needs ten or more pairs,
// the change winning nine tenths of them and a median difference larger
// than the base's own quartile spread.
func verdict(m metric, base, change []float64) string {
	b, c := summarize(base, 0.5), summarize(change, 0.5)
	better := func(x, y float64) bool { // x reads better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	worse := (c.Value - b.Value) / b.Value
	if m.Better == "higher" {
		worse = -worse
	}
	allBetter := true
	for _, x := range change {
		for _, y := range base {
			allBetter = allBetter && better(x, y)
		}
	}
	pairs, wins := min(len(base), len(change)), 0
	for i := 0; i < pairs; i++ {
		if better(change[i], base[i]) {
			wins++
		}
	}
	spread := b.Q3 - b.Q1
	switch {
	case worse > m.Bound:
		return "REGRESSION"
	case spread/b.Value > m.Bound && !allBetter:
		return "unresolved"
	case pairs >= 10 && float64(wins) >= 0.9*float64(pairs) && better(c.Value, b.Value) &&
		math.Abs(c.Value-b.Value) > spread:
		return "gain"
	}
	return "within bound"
}

// compareRecords is -compare base.json change.json: per workload and
// end-to-end metric, both sides' medians and quartiles over their untraced
// runs and the verdict, then each side's failed ops. It exits 1 when any
// metric regressed or the change failed more ops than the base, which
// also voids any gain.
func compareRecords(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark -compare base.json change.json")
		return 2
	}
	var sides [2]map[string]map[string][]float64 // workload -> metric -> per-run values
	var failed [2]map[string]int
	for i, path := range args {
		rf, err := readRecords(path)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		sides[i], failed[i] = map[string]map[string][]float64{}, map[string]int{}
		for _, r := range rf.Runs {
			failed[i][r.Workload] += r.Failed
			if r.Traced {
				continue
			}
			if sides[i][r.Workload] == nil {
				sides[i][r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics { //lint:sorted grouping into a map; printed in declared order below
				sides[i][r.Workload][name] = append(sides[i][r.Workload][name], m.Value)
			}
		}
	}
	tw := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3] n\tchange median [q1, q3] n\tchange\tbound\tverdict")
	regressed := false
	for _, w := range order {
		moreFailures := failed[1][w] > failed[0][w]
		regressed = regressed || moreFailures
		for _, m := range endToEnd {
			base, change := sides[0][w][m.Name], sides[1][w][m.Name]
			if len(base) == 0 || len(change) == 0 {
				continue
			}
			b, c := summarize(base, 0.5), summarize(change, 0.5)
			v := verdict(m, base, change)
			if v == "gain" && moreFailures {
				v = "no gain: more ops failed"
			}
			regressed = regressed || v == "REGRESSION"
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] %d\t%.4g [%.4g, %.4g] %d\t%+.1f%%\t%.0f%%\t%s\n",
				w, m.Name, b.Value, b.Q1, b.Q3, b.N, c.Value, c.Q1, c.Q3, c.N,
				100*(c.Value/b.Value-1), 100*m.Bound, v)
		}
	}
	for _, w := range order {
		if _, ok := failed[0][w]; ok {
			fmt.Fprintf(tw, "%s\tfailed ops\t%d\t%d\t\t\t\n", w, failed[0][w], failed[1][w])
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if regressed {
		return 1
	}
	return 0
}
