package serve

import (
	"io"
	"sort"

	"repro/internal/report"
	"repro/internal/stats"
)

// Counters converts a wire-format predictor result back into the harness's
// counter type, so served numbers flow through the exact formatting code
// the experiment tables use.
func (p PredictorResult) Counters() stats.Counters {
	return stats.Counters{
		Predictor: p.Name, Lookups: p.Lookups,
		Correct: p.Correct, Wrong: p.Wrong, NoPrediction: p.NoPrediction,
	}
}

// RenderMatrix renders streamed cell results as the experiment harness's
// misprediction matrix. It is the same function as cmd/experiments'
// printMatrix: both call report.Matrix. Cells arrive in completion order
// (the stream is concurrent); they are sorted back into suite order by
// index, so for a given (workload config, suite, events) the output is
// byte-identical to the serial harness. CI pins that equivalence.
func RenderMatrix(w io.Writer, title string, cells []CellResult) {
	ordered := make([]CellResult, len(cells))
	copy(ordered, cells)
	sort.Slice(ordered, func(a, b int) bool { return ordered[a].Index < ordered[b].Index })
	runs := make([]string, len(ordered))
	rows := make([][]stats.Counters, len(ordered))
	for i, cell := range ordered {
		runs[i] = cell.Run
		rows[i] = make([]stats.Counters, len(cell.Predictors))
		for j, p := range cell.Predictors {
			rows[i][j] = p.Counters()
		}
	}
	report.Matrix(w, title, runs, rows)
}
