package report

import (
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestTableRender(t *testing.T) {
	tab := NewTable("Results", "run", "ratio")
	tab.AddRow("perl.exp", "9.47")
	tab.AddRow("gcc")
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	if lines[0] != "Results" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "run") || !strings.Contains(lines[1], "ratio") {
		t.Errorf("header = %q", lines[1])
	}
	if !strings.Contains(lines[2], "---") {
		t.Errorf("separator = %q", lines[2])
	}
	if !strings.Contains(lines[3], "perl.exp") || !strings.Contains(lines[3], "9.47") {
		t.Errorf("row = %q", lines[3])
	}
	// Columns align: "ratio" starts at the same offset in header and rows.
	col := strings.Index(lines[1], "ratio")
	if lines[3][col:col+4] != "9.47" {
		t.Errorf("column misaligned:\n%s", out)
	}
}

func TestTableAddRowf(t *testing.T) {
	tab := NewTable("", "a", "b", "c")
	tab.AddRowf("x", 3.14159, 42)
	out := tab.String()
	if !strings.Contains(out, "3.14") {
		t.Errorf("float not formatted: %s", out)
	}
	if !strings.Contains(out, "42") {
		t.Errorf("int missing: %s", out)
	}
}

// TestMatrix pins the matrix layout: predictor columns named by the first
// row, one row per run, and a MEAN row averaging each column's per-run
// ratios (runs without lookups skipped).
func TestMatrix(t *testing.T) {
	var b strings.Builder
	Matrix(&b, "M", []string{"r1", "r2"}, [][]stats.Counters{
		{{Predictor: "A", Lookups: 100, Wrong: 10}, {Predictor: "B", Lookups: 100, NoPrediction: 50}},
		{{Predictor: "A", Lookups: 100, Wrong: 30}, {Predictor: "B"}},
	})
	want := "M\nrun   A      B\n----  -----  -----\nr1    10.00  50.00\nr2    30.00  0.00\nMEAN  20.00  50.00\n\n"
	if b.String() != want {
		t.Errorf("Matrix =\n%q\nwant\n%q", b.String(), want)
	}
	b.Reset()
	Matrix(&b, "M", nil, nil)
	if b.String() != "M\n  (no cells)\n" {
		t.Errorf("empty Matrix = %q", b.String())
	}
}

func TestPct(t *testing.T) {
	if Pct(0.0947) != "9.47" {
		t.Errorf("Pct = %q", Pct(0.0947))
	}
}
