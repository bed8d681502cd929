// Package counter implements the saturating-counter state machines used
// throughout the predictors: the 2-bit up/down hysteresis counter that
// gates target replacement in BTB2b/GAp/Dual-path/Markov entries (Section 4:
// "the target is updated on two consecutive misses"), and the 2-bit
// correlation-selection counters of Figure 5 (normal and PIB-biased modes)
// that choose between PB and PIB path history per branch.
package counter

import (
	"fmt"

	"repro/internal/state"
)

// Hysteresis is the per-entry 2-bit up/down saturating counter that controls
// when a stored target may be replaced. A freshly allocated entry starts in
// the weak state so that two consecutive misses replace the target, exactly
// as described in Section 4 of the paper.
type Hysteresis struct {
	v uint8 // 0..3
}

// NewHysteresis returns a counter in the weak-confidence initial state.
func NewHysteresis() Hysteresis { return Hysteresis{v: 1} }

// Value exposes the raw 2-bit state, for tests and debug dumps.
func (h Hysteresis) Value() uint8 { return h.v }

// Walk visits the counter's raw 2-bit state as one snapshot byte, rejecting
// a value above 3 on load.
func (h *Hysteresis) Walk(c *state.Codec) { c.U8Max(&h.v, 3) }

// OnHit strengthens confidence after the stored target proved correct.
//
//ppm:hotpath per-prediction counter state transition
func (h *Hysteresis) OnHit() {
	if h.v < 3 {
		h.v++
	}
}

// OnMiss weakens confidence after the stored target proved wrong and
// reports whether the entry's target should be replaced now. Replacement
// happens when a miss arrives with the counter already at zero; the counter
// is then reset to the weak state for the incoming target.
//
//ppm:hotpath per-prediction counter state transition
func (h *Hysteresis) OnMiss() (replace bool) {
	if h.v == 0 {
		h.v = 1
		return true
	}
	h.v--
	return false
}

// Correlation identifies which path history register a branch selects.
type Correlation uint8

const (
	// PB selects the per-branch (all-branch) global path history.
	PB Correlation = iota
	// PIB selects the per-indirect-branch global path history.
	PIB
)

// String returns "PB" or "PIB".
func (c Correlation) String() string {
	if c == PB {
		return "PB"
	}
	return "PIB"
}

// SelectionMode chooses which Figure 5 state machine a selection counter
// follows.
type SelectionMode uint8

const (
	// Normal is the plain 2-bit up/down machine: the selected correlation
	// type changes only after two consecutive mispredictions from a
	// strong state.
	Normal SelectionMode = iota
	// PIBBiased favors PIB history: a single misprediction in a PB state
	// jumps two steps toward PIB (Strongly-PB -> Weakly-PIB, Weakly-PB ->
	// Strongly-PIB), eliminating the bounce between weak states that the
	// paper observed for strongly PIB-correlated branches aliasing in the
	// Markov tables.
	PIBBiased
)

// String names the mode.
func (m SelectionMode) String() string {
	if m == PIBBiased {
		return "pib-biased"
	}
	return "normal"
}

// Selection states, Figure 5. The 2-bit encoding matches the figure labels.
const (
	StronglyPB  uint8 = 0 // 00
	WeaklyPB    uint8 = 1 // 01
	WeaklyPIB   uint8 = 2 // 10
	StronglyPIB uint8 = 3 // 11
)

// Selection is one per-branch correlation selection counter, held in the BIU.
// The zero value is NOT the paper's initial state; use NewSelection.
type Selection struct {
	state uint8
	mode  SelectionMode
}

// NewSelection returns a counter initialized to Strongly-PIB, the initial
// state the paper uses for both state machines.
func NewSelection(mode SelectionMode) Selection {
	return Selection{state: StronglyPIB, mode: mode}
}

// State exposes the raw 2-bit state for tests and debug dumps.
func (s Selection) State() uint8 { return s.state }

// Walk visits the counter's raw 2-bit state as one snapshot byte, rejecting
// a value above StronglyPIB on load. The mode is the owner's configuration
// and never travels: a loaded counter keeps the mode it was built with.
func (s *Selection) Walk(c *state.Codec) { c.U8Max(&s.state, StronglyPIB) }

// Selected returns the correlation type the branch currently uses.
//
//ppm:hotpath per-prediction counter state transition
func (s Selection) Selected() Correlation {
	if s.state <= WeaklyPB {
		return PB
	}
	return PIB
}

// Update advances the state machine after the branch resolves. correct
// reports whether the prediction made with the selected history was right.
// Solid arcs in Figure 5 (correct prediction) strengthen the current
// correlation type; dotted arcs (misprediction) move toward the other type —
// one step in Normal mode, two steps from the PB side in PIBBiased mode.
//
//ppm:hotpath per-prediction counter state transition
func (s *Selection) Update(correct bool) {
	if correct {
		switch s.state {
		case WeaklyPB:
			s.state = StronglyPB
		case WeaklyPIB:
			s.state = StronglyPIB
		}
		return
	}
	switch s.mode {
	case Normal:
		switch s.state {
		case StronglyPB:
			s.state = WeaklyPB
		case WeaklyPB:
			s.state = WeaklyPIB
		case WeaklyPIB:
			s.state = WeaklyPB
		case StronglyPIB:
			s.state = WeaklyPIB
		}
	case PIBBiased:
		switch s.state {
		case StronglyPB:
			s.state = WeaklyPIB
		case WeaklyPB:
			s.state = StronglyPIB
		case WeaklyPIB:
			s.state = WeaklyPB
		case StronglyPIB:
			s.state = WeaklyPIB
		}
	}
}

// StateName returns the Figure 5 label for a selection state.
func StateName(state uint8) string {
	switch state {
	case StronglyPB:
		return "Strongly PB"
	case WeaklyPB:
		return "Weakly PB"
	case WeaklyPIB:
		return "Weakly PIB"
	case StronglyPIB:
		return "Strongly PIB"
	}
	return fmt.Sprintf("state(%d)", state)
}
