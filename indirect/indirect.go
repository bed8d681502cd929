// Package indirect is the public API of this repository: a library of
// indirect-branch target predictors reproducing Kalamatianos & Kaeli,
// "Predicting Indirect Branches via Data Compression" (MICRO-31, 1998),
// together with the trace model, synthetic workload generator, and
// simulation engine needed to evaluate them.
//
// The paper's contribution — the PPM predictor with dynamic per-branch
// correlation selection — is constructed with NewPPMHybrid; every baseline
// it was compared against (BTB, BTB2b, GAp, Target Cache, Dual-path,
// Cascade) has a constructor holding the same 2K-entry hardware budget.
//
// A minimal session:
//
//	p := indirect.NewPPMHybrid()
//	eng := indirect.NewEngine(p)
//	cfg, _ := indirect.BenchmarkByName("photon")
//	cfg.Events = 100_000
//	cfg.Generate(func(r indirect.Record) { eng.Process(r) })
//	fmt.Println(eng.Counters()[0]) // misprediction ratio etc.
//
// The subpackages under internal/ hold the implementations; this package
// re-exports the stable surface.
package indirect

import (
	"io"

	"repro/internal/bench"
	"repro/internal/btb"
	"repro/internal/cascade"
	"repro/internal/cbt"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/pipeline"
	"repro/internal/predictor"
	"repro/internal/ras"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/twolevel"
	"repro/internal/workload"
)

// Predictor is the interface every indirect-branch target predictor
// implements. See the simulation protocol in the engine documentation:
// Predict and Update pair up per multi-target indirect branch; Observe is
// called for every committed branch record afterward.
type Predictor = predictor.IndirectPredictor

// Record is one committed control-transfer instruction of a trace.
type Record = trace.Record

// Branch classes (Alpha-flavoured).
const (
	CondDirect   = trace.CondDirect
	UncondDirect = trace.UncondDirect
	DirectCall   = trace.DirectCall
	IndirectJmp  = trace.IndirectJmp
	IndirectJsr  = trace.IndirectJsr
	Return       = trace.Return
)

// Counters accumulates prediction outcomes for one predictor.
type Counters = stats.Counters

// Engine drives branch records through a set of predictors.
type Engine = sim.Engine

// NewEngine builds a simulation engine over the given predictors.
func NewEngine(preds ...Predictor) *Engine { return sim.New(preds...) }

// Simulate runs a record slice through fresh predictors and returns their
// accuracy counters.
func Simulate(recs []Record, preds ...Predictor) []Counters { return sim.Run(recs, preds...) }

// PPMConfig parameterizes the paper's predictor; see NewPPM.
type PPMConfig = core.Config

// PPM variant modes.
const (
	PIBOnly      = core.PIBOnly
	Hybrid       = core.Hybrid
	HybridBiased = core.HybridBiased
)

// PPM is the paper's Prediction-by-Partial-Matching indirect branch target
// predictor.
type PPM = core.PPM

// NewPPM builds a PPM predictor from an explicit configuration.
func NewPPM(cfg PPMConfig) *PPM { return core.New(cfg) }

// NewPPMHybrid returns the paper's headline PPM-hyb configuration:
// order 10, SFSXS indexing, dynamic PB/PIB selection, 2047 entries.
func NewPPMHybrid() *PPM { return core.PaperHyb() }

// NewPPMPIB returns the single-history PPM-PIB variant.
func NewPPMPIB() *PPM { return core.PaperPIB() }

// NewPPMHybridBiased returns the PPM-hyb-biased variant (Figure 5's
// PIB-biased selection protocol).
func NewPPMHybridBiased() *PPM { return core.PaperHybBiased() }

// NewBTB returns a tagless 2K-entry branch target buffer.
func NewBTB() Predictor { return btb.New(2048) }

// NewBTB2b returns a 2K-entry BTB with 2-bit replacement hysteresis.
func NewBTB2b() Predictor { return btb.New2b(2048) }

// NewGAp returns the paper's GAp two-level predictor configuration.
func NewGAp() Predictor { return twolevel.PaperGAp() }

// NewTargetCache returns the paper's TC-PIB Target Cache configuration.
func NewTargetCache() Predictor { return twolevel.PaperTCPIB() }

// NewDualPath returns the paper's Dpath hybrid configuration.
func NewDualPath() Predictor { return twolevel.PaperDualPath() }

// NewCascade returns the paper's Cascade (leaky-filter) configuration.
func NewCascade() Predictor { return cascade.Paper() }

// NewOracle returns the Section 5 oracle: unbounded exact-context
// prediction over complete PIB path history of the given length.
func NewOracle(pathLength int) Predictor { return oracle.New(pathLength) }

// NewFilteredPPM returns the Section 6 future-work design: the PPM-hyb
// predictor behind a 128-entry leaky filter that isolates monomorphic and
// low-entropy branches from the Markov tables.
func NewFilteredPPM() Predictor { return core.PaperFiltered() }

// NewCBT returns a Case Block Table (Kaeli & Emma, via Related Work): a
// switch-target predictor keyed on the switch variable value, usable at
// fetch with the given probability (1 = idealized, 0 = BTB-equivalent).
func NewCBT(entries int, availability float64) Predictor {
	return cbt.New(cbt.Config{Entries: entries, Availability: availability, Seed: 0xCB7})
}

// Pipeline is the wide-issue front-end cost model that converts
// misprediction counts into cycle/IPC estimates (the paper's motivation).
type Pipeline = pipeline.Config

// Default4Wide is a 4-wide, 10-cycle-refill machine configuration.
var Default4Wide = pipeline.Default4Wide

// MPKI returns mispredictions per thousand instructions.
func MPKI(instructions, mispredictions uint64) float64 {
	return pipeline.MPKI(instructions, mispredictions)
}

// NewPredictor constructs a paper-configured predictor by its Figure 6/7
// label ("BTB", "BTB2b", "GAp", "TC-PIB", "Dpath", "Cascade", "PPM-hyb",
// "PPM-PIB", "PPM-hyb-biased"); ok is false for unknown names.
func NewPredictor(name string) (Predictor, bool) { return bench.NewPredictor(name) }

// PredictorNames lists every label NewPredictor accepts.
func PredictorNames() []string { return bench.PredictorNames() }

// RAS is a return address stack (Kaeli & Emma), the mechanism that removes
// subroutine returns from the indirect predictor's workload.
type RAS = ras.Stack

// NewRAS builds a return address stack of the given depth.
func NewRAS(depth int) *RAS { return ras.New(depth) }

// Workload is a synthetic benchmark configuration; its Generate method
// emits a deterministic branch record stream.
type Workload = workload.Config

// SiteSpec declares one indirect branch site of a workload.
type SiteSpec = workload.SiteSpec

// Site behaviours for building custom workloads.
type (
	// Monomorphic sites overwhelmingly use one target.
	Monomorphic = workload.Monomorphic
	// LowEntropy sites switch targets rarely.
	LowEntropy = workload.LowEntropy
	// Correlated sites follow recent path history (PIB, PB or self).
	Correlated = workload.Correlated
	// CondDriven sites follow recent conditional outcomes.
	CondDriven = workload.CondDriven
	// Cyclic sites walk their target list in order.
	Cyclic = workload.Cyclic
	// Uniform sites pick targets at random.
	Uniform = workload.Uniform
)

// Correlation streams for Correlated sites.
const (
	StreamPIB  = workload.PIB
	StreamPB   = workload.PB
	StreamSelf = workload.Self
)

// BenchmarkSuite returns the paper's 14-run benchmark suite (Table 1) at
// the default event count.
func BenchmarkSuite() []Workload { return bench.Suite() }

// BenchmarkByName returns one suite run by its Table 1 name, e.g.
// "troff.ped" or "photon".
func BenchmarkByName(name string) (Workload, bool) { return bench.ByName(name) }

// WriteTrace encodes records to w in the repository's compact binary trace
// format (IBT2).
func WriteTrace(w io.Writer, recs []Record) error {
	tw, err := trace.NewWriter(w)
	if err != nil {
		return err
	}
	for _, r := range recs {
		if err := tw.Write(r); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// ReadTrace decodes an IBT2 trace stream.
func ReadTrace(r io.Reader) ([]Record, error) {
	tr, err := trace.NewReader(r)
	if err != nil {
		return nil, err
	}
	return tr.ReadAll()
}

// MeanRatio returns the arithmetic mean of per-run misprediction ratios,
// the paper's cross-benchmark aggregate.
func MeanRatio(runs []Counters) float64 { return stats.MeanRatio(runs) }
