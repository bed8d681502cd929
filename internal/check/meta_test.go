package check

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/workload"
)

// metaEvents sizes the metamorphic quick pass: enough dispatches to fill
// histories and force evictions, small enough for every `go test`.
const metaEvents = 400

func metaConfigs(t *testing.T) []workload.Config {
	t.Helper()
	return []workload.Config{RandomConfig(21, metaEvents), RandomConfig(22, metaEvents)}
}

func TestSameSeedIdentity(t *testing.T) {
	for _, cfg := range metaConfigs(t) {
		if err := SameSeedIdentity(cfg); err != nil {
			t.Error(err)
		}
	}
}

// TestTraceCacheIdentity runs the blocks-vs-records matrix at one worker,
// where it reduces to its cache axis: an unlimited budget and a one-trace
// budget whose second cell evicts the first, so miss, hit-after-generate and
// regenerate-after-evict all replay the fig6 set.
func TestTraceCacheIdentity(t *testing.T) {
	if err := BlocksVsRecords(metaConfigs(t), bench.Figure6Predictors, 1); err != nil {
		t.Error(err)
	}
}

// TestWorkerIdentity runs the full blocks-vs-records matrix, worker widths
// 1-4 under both budgets, over the fig7 set.
func TestWorkerIdentity(t *testing.T) {
	if err := BlocksVsRecords(metaConfigs(t), bench.Figure7Predictors, 4); err != nil {
		t.Error(err)
	}
}

func TestServedVsSerial(t *testing.T) {
	if err := ServedVsSerial([]string{"troff.ped", "eqn"}, metaEvents, "fig6"); err != nil {
		t.Error(err)
	}
}

func TestSplitConcatIdentity(t *testing.T) {
	if err := SplitConcatIdentity([]string{"perl.exp", "gs.tig"}, metaEvents, "fig7"); err != nil {
		t.Error(err)
	}
}

func TestUploadVsSerial(t *testing.T) {
	if err := UploadVsSerial(RandomTrace(23, metaEvents), []string{"BTB", "Cascade", "PPM-hyb"}); err != nil {
		t.Error(err)
	}
}
