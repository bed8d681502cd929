// Package leakcheck verifies that a block of code did not leave goroutines
// behind: every goroutine a test's servers, jobs and pools start must have
// exited once the test's cleanups have run.
//
// Usage in tests:
//
//	func TestLifecycle(t *testing.T) {
//		leakcheck.Check(t)
//		// ... start and stop servers, jobs, pools ...
//	}
//
// Check snapshots the running goroutines and registers a cleanup that
// re-snapshots after the test body (and its own cleanups) finish, failing
// the test if new goroutines survive. Usage outside tests (the ppmcheck
// fault sweeps) takes a Snapshot directly and asks it for Leaked output.
//
// Goroutines are compared by ID, so a pre-existing goroutine never counts
// against the checked region even if its stack moved. Runtime-internal and
// test-harness goroutines are filtered. Because a goroutine that has been
// signaled may need a scheduler beat to actually exit, Leaked retries over
// a settle window before declaring a leak.
package leakcheck

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// DefaultSettle is how long Leaked waits for signaled goroutines to
// finish exiting before declaring them leaked.
const DefaultSettle = 5 * time.Second

// Snapshot is the set of goroutines alive at a point in time, keyed by ID.
type Snapshot struct {
	stacks map[int64]string
}

// TB is the subset of testing.TB that Check needs; declaring it here keeps
// non-test callers (the ppmcheck sweeps) free of the testing package.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Cleanup(func())
}

// Check snapshots now and fails t if goroutines started after this call are
// still running when the test (including later-registered cleanups) ends.
// Call it first so its cleanup runs last.
func Check(t TB) {
	t.Helper()
	before := Take()
	t.Cleanup(func() {
		t.Helper()
		if leaked := before.Leaked(); len(leaked) > 0 {
			t.Errorf("leakcheck: %d goroutine(s) leaked:\n%s", len(leaked), strings.Join(leaked, "\n"))
		}
	})
}

// Take snapshots the currently running goroutines.
func Take() Snapshot {
	return Snapshot{stacks: dump()}
}

// Leaked reports goroutines running now that were not in the snapshot,
// waiting up to DefaultSettle for them to exit. Each entry is the
// goroutine's full stack block.
func (s Snapshot) Leaked() []string {
	return s.LeakedWithin(DefaultSettle)
}

// LeakedWithin is Leaked with an explicit settle window.
func (s Snapshot) LeakedWithin(settle time.Duration) []string {
	deadline := time.Now().Add(settle) //lint:wallclock settle window measures real scheduler time, not simulated time
	delay := time.Millisecond
	for {
		leaked := s.diff()
		if len(leaked) == 0 || time.Now().After(deadline) { //lint:wallclock same settle window
			return leaked
		}
		time.Sleep(delay)
		if delay < 100*time.Millisecond {
			delay *= 2
		}
	}
}

// diff returns the stacks of interesting goroutines not present in s.
func (s Snapshot) diff() []string {
	now := dump()
	ids := make([]int64, 0, len(now))
	for id := range now {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var leaked []string
	for _, id := range ids {
		if _, ok := s.stacks[id]; ok {
			continue
		}
		if ignore(now[id]) {
			continue
		}
		leaked = append(leaked, now[id])
	}
	return leaked
}

// dump captures all goroutine stacks, keyed by goroutine ID.
func dump() map[int64]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	out := map[int64]string{}
	for _, block := range strings.Split(string(buf), "\n\n") {
		id, ok := goroutineID(block)
		if !ok {
			continue
		}
		out[id] = block
	}
	return out
}

// goroutineID parses the "goroutine N [state]:" header of one stack block.
func goroutineID(block string) (int64, bool) {
	const prefix = "goroutine "
	if !strings.HasPrefix(block, prefix) {
		return 0, false
	}
	rest := block[len(prefix):]
	end := strings.IndexByte(rest, ' ')
	if end < 0 {
		return 0, false
	}
	id, err := strconv.ParseInt(rest[:end], 10, 64)
	if err != nil {
		return 0, false
	}
	return id, true
}

// ignore filters goroutines that are not the checked code's responsibility:
// the calling goroutine itself, the testing harness, runtime helpers, and
// signal handling.
func ignore(stack string) bool {
	// The top frame is the second line of the block.
	lines := strings.SplitN(stack, "\n", 3)
	if len(lines) < 2 {
		return true
	}
	top := strings.TrimSpace(lines[1])
	// The goroutine performing this very capture is always on-CPU inside
	// dump; nothing else in this package appears as a top frame.
	if strings.Contains(top, "leakcheck.dump") {
		return true
	}
	for _, prefix := range []string{
		"testing.",
		"runtime.",
		"os/signal.",
		"runtime/pprof.",
	} {
		if strings.HasPrefix(top, prefix) {
			return true
		}
	}
	return false
}

// String renders the snapshot size, for debugging harnesses.
func (s Snapshot) String() string {
	return fmt.Sprintf("leakcheck.Snapshot(%d goroutines)", len(s.stacks))
}
