package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// smokeConfig shrinks every workload to a second or so.
func smokeConfig() config {
	c := defaultConfig()
	c.seconds = 1
	c.setups = 1
	c.gridEvents = 2_000
	c.uploadEvents = 2_000
	c.sessionEvents = 1_000
	c.probeEvents = 2_000
	c.diffRecords = 512
	c.chunkRecords = 64
	return c
}

// TestDeclaredMetrics holds BENCHMARK.json to the metric tables the
// benchmark prints and the workloads it runs.
func TestDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, order) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, order)
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from endToEnd:\n%v\n%v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from perLayer:\n%v\n%v", decl.PerLayer, perLayer)
	}
}

// results runs the benchmark with args and decodes its result lines.
func results(t *testing.T, c config, args ...string) []result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(c, args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	var rs []result
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("result line %q: %v", line, err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("correct=%v attempted=%d failed=%d: %s", r.Correct, r.Attempted, r.Failed, stderr.String())
		}
		rs = append(rs, r)
	}
	return rs
}

// checkMetrics requires every declared metric printed with its unit.
func checkMetrics(t *testing.T, r result, defs []metric) {
	t.Helper()
	for _, m := range defs {
		v, ok := r.Metrics[m.Name]
		if !ok || v.Unit != m.Unit {
			t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, v, ok, m.Unit)
		}
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("printed %d metrics, declared %d", len(r.Metrics), len(defs))
	}
}

func TestSmoke(t *testing.T) {
	rs := results(t, smokeConfig(), "-workload", "all", "-seed", "3")
	if len(rs) != len(order) {
		t.Fatalf("%d result lines, want %d", len(rs), len(order))
	}
	for _, r := range rs {
		checkMetrics(t, r, endToEnd)
		for name, v := range r.Metrics { //lint:sorted assertions only
			if v.Value <= 0 {
				t.Errorf("end-to-end metric %s = %v, want > 0", name, v.Value)
			}
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.json")
	rs := results(t, smokeConfig(), "-workload", "sessions", "-seed", "2", "-trace", "1", "-spans", path)
	if len(rs) != 1 {
		t.Fatalf("%d result lines, want 1", len(rs))
	}
	checkMetrics(t, rs[0], perLayer)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Traces []spanTrace }
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("spans file: %v", err)
	}
	seen := map[string]bool{}
	for _, tr := range doc.Traces {
		seen[tr.Workload] = true
		if len(tr.Spans) == 0 || tr.Coverage < 0.9 {
			t.Errorf("%s: %d spans, coverage %.3f, want spans and coverage >= 0.9", tr.Workload, len(tr.Spans), tr.Coverage)
		}
	}
	for _, w := range order {
		if !seen[w] {
			t.Errorf("spans file has no %s trace", w)
		}
	}
}

// TestChecksBite feeds the upload checker one wrong expected counter.
func TestChecksBite(t *testing.T) {
	c := smokeConfig()
	c.corruptExpected = true
	o, err := runUpload(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.failed == 0 {
		t.Fatal("a wrong expected counter went unnoticed")
	}
}
