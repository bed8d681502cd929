package mutants

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRowsMatch holds the table to today's code by text alone, without
// running a killer: every row's old text occurs exactly once in its file,
// so a refactor that moves the code under a row fails here and the row is
// rewritten, not silently skipped by `make mutants`.
func TestRowsMatch(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range Rows {
		if r.Name == "" || seen[r.Name] {
			t.Errorf("row %q: name empty or repeated", r.Name)
		}
		seen[r.Name] = true
		src, err := os.ReadFile(filepath.Join("..", "..", filepath.FromSlash(r.File)))
		if err != nil {
			t.Errorf("row %s: %v", r.Name, err)
			continue
		}
		if _, err := r.Apply(src); err != nil {
			t.Error(err)
		}
		if r.Old == r.New {
			t.Errorf("row %s: old and new text are equal", r.Name)
		}
		if len(r.Killers) == 0 {
			t.Errorf("row %s: no killers", r.Name)
		}
		for _, k := range r.Killers {
			if _, _, err := ParseKiller(k); err != nil {
				t.Errorf("row %s: %v", r.Name, err)
			}
		}
		if r.Sole {
			if _, ok := r.SoleAnalyzer(); !ok {
				t.Errorf("row %s: a Sole row has exactly one killer, a ppmlint analyzer", r.Name)
			}
		}
	}
}
