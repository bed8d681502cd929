package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
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
