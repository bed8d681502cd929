// Package stats provides the accuracy accounting used throughout the
// experiment harness: per-predictor misprediction counters, ratios, and
// cross-run aggregation matching the paper's reporting (misprediction ratio
// over dynamic multi-target indirect branches; a prediction the predictor
// declined to make counts as a misprediction).
package stats

import "fmt"

// Counters accumulates prediction outcomes for one predictor on one run.
type Counters struct {
	// Predictor names the configuration.
	Predictor string
	// Lookups is the number of MT indirect branches presented.
	Lookups uint64
	// Correct counts right-target predictions.
	Correct uint64
	// Wrong counts wrong-target predictions.
	Wrong uint64
	// NoPrediction counts lookups where the predictor abstained.
	NoPrediction uint64
}

// Record accumulates one prediction outcome.
//
//ppm:hotpath per-record misprediction accounting
func (c *Counters) Record(predicted, ok bool) {
	c.Lookups++
	switch {
	case !ok:
		c.NoPrediction++
	case predicted:
		c.Correct++
	default:
		c.Wrong++
	}
}

// Mispredictions returns wrong + abstained, the paper's numerator.
func (c Counters) Mispredictions() uint64 { return c.Wrong + c.NoPrediction }

// MispredictionRatio returns mispredictions / lookups in [0,1]; zero when
// no lookups occurred.
func (c Counters) MispredictionRatio() float64 {
	if c.Lookups == 0 {
		return 0
	}
	return float64(c.Mispredictions()) / float64(c.Lookups)
}

// Accuracy returns 1 - MispredictionRatio.
func (c Counters) Accuracy() float64 { return 1 - c.MispredictionRatio() }

// String formats the counters compactly.
func (c Counters) String() string {
	return fmt.Sprintf("%s: %.2f%% mispred (%d/%d, %d abstained)",
		c.Predictor, 100*c.MispredictionRatio(), c.Mispredictions(), c.Lookups, c.NoPrediction)
}

// Add merges another run's counters for the same predictor.
func (c *Counters) Add(o Counters) {
	c.Lookups += o.Lookups
	c.Correct += o.Correct
	c.Wrong += o.Wrong
	c.NoPrediction += o.NoPrediction
}

// MeanRatio returns the arithmetic mean of per-run misprediction ratios,
// the cross-benchmark average the paper reports (9.47% for PPM-hyb etc.).
// Runs with zero lookups are skipped.
func MeanRatio(runs []Counters) float64 {
	var sum float64
	n := 0
	for _, r := range runs {
		if r.Lookups == 0 {
			continue
		}
		sum += r.MispredictionRatio()
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
