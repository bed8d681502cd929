package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/trace"
)

// TestBenchGolden pins `ppmsim -bench` byte for byte — counters,
// instruction count, RAS accuracy and the PPM component distribution — to
// goldens rendered by the record-at-a-time engine, so the block engine
// that now runs -bench is held to the record path's output.
func TestBenchGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"gcc.cp-2000-components.golden", []string{"-bench", "gcc.cp", "-events", "2000", "-components"}},
		{"eon-2000-all.golden", []string{"-bench", "eon", "-events", "2000",
			"-predictors", strings.Join(bench.PredictorNames(), ",")}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := run(tc.args, &out); err != nil {
				t.Fatalf("run %v: %v", tc.args, err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("ppmsim %s differs from %s:\n%s", strings.Join(tc.args, " "), tc.golden, out.String())
			}
		})
	}
}

// TestTraceGolden pins `ppmsim -trace`, which streams a file through one
// goroutine per predictor, to the same golden as -bench: eon at 2000
// events, encoded to IBT2, must print the golden's table and RAS line byte
// for byte, and its source line must name the file with the golden's
// record and instruction counts.
func TestTraceGolden(t *testing.T) {
	cfg, _ := bench.ByName("eon")
	cfg.Events = 2000
	recs, _ := cfg.Records()
	path := filepath.Join(t.TempDir(), "eon.ibt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	want, err := os.ReadFile(filepath.Join("testdata", "eon-2000-all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"-trace", path, "-predictors", strings.Join(bench.PredictorNames(), ",")}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	got := bytes.Replace(out.Bytes(), []byte("source: "+path+" "), []byte("source: eon "), 1)
	if !bytes.Equal(got, want) {
		t.Errorf("ppmsim -trace differs from eon-2000-all.golden:\n%s", out.String())
	}
}
