// Command mutants runs the checked-in mutant table (internal/mutants): for
// every row it applies the mutant, checks that the module still builds, and
// runs the row's killers, each of which must fail. A Sole row must also pass
// go test ./..., go test -race ./..., codegate and every other ppmlint
// analyzer, which is the evidence that its analyzer earns its lines.
//
// Usage, from the module root (`make mutants`):
//
//	mutants
//
// It takes no flags and leaves the working tree as it found it: go test and
// ppmcheck see the mutated file through -overlay, ppmcheck hunts write into
// a temp copy of the corpus, and codegate and ppmlint, which parse source
// from disk, run in a temp copy of the tree that each row mutates and
// restores. It prints one line per row and a closing line with the kill
// count and wall time, and exits 1 when a row is stale, fails to build,
// survives a killer or, for a Sole row, fails any other check.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/mutants"
)

const corpusDir = "internal/check/testdata/corpus"

func main() {
	if len(os.Args) > 1 {
		fmt.Fprintln(os.Stderr, "usage: mutants (from the module root; takes no flags)")
		os.Exit(2)
	}
	start := time.Now() //lint:wallclock the driver reports its own wall time
	d, err := newDriver()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mutants:", err)
		os.Exit(2)
	}
	killed := 0
	for _, r := range mutants.Rows {
		t0 := time.Now() //lint:wallclock per-row wall time
		err := d.run(r)
		took := time.Since(t0).Seconds() //lint:wallclock per-row wall time
		if err != nil {
			fmt.Printf("FAIL   %s (%.1fs): %v\n", r.Name, took, err)
			continue
		}
		killed++
		fmt.Printf("killed %s (%.1fs): %s\n", r.Name, took, strings.Join(r.Killers, "; "))
	}
	d.close()
	wall := time.Since(start).Round(time.Second) //lint:wallclock the driver reports its own wall time
	fmt.Printf("mutants: %d of %d rows killed, wall %s\n", killed, len(mutants.Rows), wall)
	if killed != len(mutants.Rows) {
		os.Exit(1)
	}
}

// driver holds the temp directory, the unmutated tool binaries and the lazily
// made copy of the tree.
type driver struct {
	root, tmp, bin, tree string
}

func newDriver() (*driver, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return nil, errors.New("run from the module root")
	}
	tmp, err := os.MkdirTemp("", "mutants-")
	if err != nil {
		return nil, err
	}
	d := &driver{root: root, tmp: tmp, bin: filepath.Join(tmp, "bin")}
	for _, tool := range []string{"codegate", "ppmlint"} {
		if out, err := run(root, "go", "build", "-o", filepath.Join(d.bin, tool), "./cmd/"+tool); err != nil {
			d.close()
			return nil, fmt.Errorf("building %s: %v\n%s", tool, err, out)
		}
	}
	return d, nil
}

func (d *driver) close() { _ = os.RemoveAll(d.tmp) }

// run applies r and runs its killers, returning why the row is not killed.
func (d *driver) run(r mutants.Row) error {
	path := filepath.Join(d.root, filepath.FromSlash(r.File))
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	mutated, err := r.Apply(src)
	if err != nil {
		return err
	}
	overlay, err := d.writeOverlay(r.Name, path, mutated)
	if err != nil {
		return err
	}
	if out, err := run(d.root, "go", "build", "-overlay", overlay, "./..."); err != nil {
		return fmt.Errorf("mutant does not build: %v\n%s", err, out)
	}
	m := &mutant{d: d, row: r, src: src, mutated: mutated, overlay: overlay}
	for _, k := range r.Killers {
		failed, out, err := m.check(k)
		if err != nil {
			return fmt.Errorf("%s: %v\n%s", k, err, out)
		}
		if !failed {
			return fmt.Errorf("survives %s", k)
		}
	}
	if r.Sole {
		return m.checkSole()
	}
	return nil
}

// mutant is one applied row; findings caches its ppmlint run.
type mutant struct {
	d            *driver
	row          mutants.Row
	src, mutated []byte
	overlay      string
	findings     map[string]int
}

// check runs one killer, reporting whether it failed on the mutant. err is
// a failure to run the check at all (a build failure, a usage error).
func (m *mutant) check(killer string) (failed bool, out string, err error) {
	kind, args, err := mutants.ParseKiller(killer)
	if err != nil {
		return false, "", err
	}
	switch kind {
	case mutants.GoTest:
		return m.goTest(args...)
	case mutants.PPMCheck:
		return m.ppmcheck(args)
	case mutants.CodeGate:
		return m.inTree(func() (bool, string, error) {
			return exitVerdict(run(m.d.tree, filepath.Join(m.d.bin, "codegate")))
		})
	default: // mutants.PPMLint
		if err := m.lint(); err != nil {
			return false, "", err
		}
		return m.findings[args[0]] > 0, "", nil
	}
}

// checkSole requires every check but the row's one analyzer to pass.
func (m *mutant) checkSole() error {
	analyzer, ok := m.row.SoleAnalyzer()
	if !ok {
		return errors.New("a Sole row has exactly one killer, a ppmlint analyzer")
	}
	for _, c := range [][]string{{"./..."}, {"-race", "./..."}} {
		failed, out, err := m.goTest(c...)
		if err != nil || failed {
			return fmt.Errorf("not sole: go test %s fails\n%s", strings.Join(c, " "), out)
		}
	}
	if failed, out, err := m.check(mutants.CodeGate); err != nil || failed {
		return fmt.Errorf("not sole: codegate fails\n%s", out)
	}
	var others []string
	for name := range m.findings {
		if name != analyzer {
			others = append(others, name)
		}
	}
	if len(others) > 0 {
		sort.Strings(others)
		return fmt.Errorf("not sole: ppmlint %s also report it", strings.Join(others, ", "))
	}
	return nil
}

func (m *mutant) goTest(args ...string) (bool, string, error) {
	out, err := run(m.d.root, "go", append([]string{"test", "-overlay", m.overlay}, args...)...)
	if strings.Contains(out, "[build failed]") || strings.Contains(out, "[setup failed]") {
		return false, out, errors.New("tests do not build")
	}
	return exitVerdict(out, err)
}

// ppmcheck runs the mutated ppmcheck's bounded pass against a fresh copy of
// the corpus, since a failing hunt writes its repro there.
func (m *mutant) ppmcheck(args []string) (bool, string, error) {
	exe := filepath.Join(m.d.tmp, "ppmcheck-"+m.row.Name)
	if out, err := run(m.d.root, "go", "build", "-overlay", m.overlay, "-o", exe, "./cmd/ppmcheck"); err != nil {
		return false, out, err
	}
	defer os.Remove(exe)
	corpus := filepath.Join(m.d.tmp, "corpus-"+m.row.Name)
	if err := copyDir(filepath.Join(m.d.root, corpusDir), corpus); err != nil {
		return false, "", err
	}
	defer os.RemoveAll(corpus)
	return exitVerdict(run(m.d.root, exe, append([]string{"-quick", "-corpus", corpus}, args...)...))
}

// lint runs every ppmlint analyzer over the mutated copy once, counting
// findings per analyzer.
func (m *mutant) lint() error {
	if m.findings != nil {
		return nil
	}
	_, _, err := m.inTree(func() (bool, string, error) {
		out, err := run(m.d.tree, filepath.Join(m.d.bin, "ppmlint"), "-json", "./...")
		var exit *exec.ExitError
		if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
			return false, out, fmt.Errorf("ppmlint: %v\n%s", err, out)
		}
		m.findings = map[string]int{}
		dec := json.NewDecoder(strings.NewReader(out))
		for dec.More() {
			var f struct{ Analyzer string }
			if err := dec.Decode(&f); err != nil {
				return false, out, fmt.Errorf("ppmlint output: %v", err)
			}
			m.findings[f.Analyzer]++
		}
		return false, "", nil
	})
	return err
}

// inTree runs fn with the mutant written into the copy of the tree, and
// restores the copy afterwards.
func (m *mutant) inTree(fn func() (bool, string, error)) (bool, string, error) {
	if m.d.tree == "" {
		tree := filepath.Join(m.d.tmp, "tree")
		if err := copyDir(m.d.root, tree); err != nil {
			return false, "", err
		}
		m.d.tree = tree
	}
	dst := filepath.Join(m.d.tree, filepath.FromSlash(m.row.File))
	if err := os.WriteFile(dst, m.mutated, 0o644); err != nil {
		return false, "", err
	}
	failed, out, err := fn()
	if werr := os.WriteFile(dst, m.src, 0o644); werr != nil && err == nil {
		err = werr
	}
	return failed, out, err
}

// writeOverlay writes the mutated file and a go -overlay map pointing path
// at it, returning the map's path.
func (d *driver) writeOverlay(name, path string, mutated []byte) (string, error) {
	dir := filepath.Join(d.tmp, "overlay", name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	file := filepath.Join(dir, filepath.Base(path))
	if err := os.WriteFile(file, mutated, 0o644); err != nil {
		return "", err
	}
	b, err := json.Marshal(map[string]map[string]string{"Replace": {path: file}})
	if err != nil {
		return "", err
	}
	overlay := filepath.Join(dir, "overlay.json")
	return overlay, os.WriteFile(overlay, b, 0o644)
}

func run(dir, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	err := cmd.Run()
	return buf.String(), err
}

// exitVerdict reads a check's exit status: 0 passes, 1 fails (the mutant is
// caught), anything else is an error running the check.
func exitVerdict(out string, err error) (bool, string, error) {
	var exit *exec.ExitError
	switch {
	case err == nil:
		return false, out, nil
	case errors.As(err, &exit) && exit.ExitCode() == 1:
		return true, out, nil
	}
	return false, out, err
}

// copyDir copies the regular files under src to dst, skipping .git.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		switch {
		case e.IsDir() && e.Name() == ".git":
			return filepath.SkipDir
		case e.IsDir():
			return os.MkdirAll(target, 0o755)
		case !e.Type().IsRegular():
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
