package workload

import "fmt"

// Stream selects which emitted path history a correlated site reads.
type Stream uint8

const (
	// PIB correlates the site with the targets of previous indirect
	// branches (the stream the paper found most branches prefer).
	PIB Stream = iota
	// PB correlates the site with the targets of all previous branches,
	// including conditional branch outcomes — the correlation only the
	// hybrid PPM predictor's PB history register can capture.
	PB
	// Self correlates the site with its own previous targets.
	Self
)

// String names the stream.
func (s Stream) String() string {
	switch s {
	case PIB:
		return "PIB"
	case PB:
		return "PB"
	case Self:
		return "self"
	}
	return fmt.Sprintf("Stream(%d)", uint8(s))
}

// Context is the generator state visible to site behaviours: the actual
// emitted path histories. Behaviours derive next targets from these, which
// guarantees the correlation they model is present in the trace a predictor
// observes.
type Context struct {
	RNG *RNG
	PIB Ring // targets of emitted indirect jmp/jsr
	PB  Ring // targets of every emitted branch
}

// Ring is a generator-side path history: the most recent historyDepth
// targets of one stream, held in place. The generator owns three kinds
// (the Context's PIB and PB rings and each site's own), and a chain escape
// restores the Context's two by plain assignment from a snapshot slot, so
// neither a push nor a snapshot allocates. The zero Ring is empty.
type Ring struct {
	buf  [historyDepth]uint64
	head uint8 // slot of the most recent target
	n    uint8 // targets held, up to historyDepth
}

// Push shifts a target in, dropping the oldest once the ring is full.
func (r *Ring) Push(t uint64) {
	r.head = (r.head + 1) % historyDepth
	r.buf[r.head] = t
	if r.n < historyDepth {
		r.n++
	}
}

// Len reports how many targets the ring holds, up to historyDepth.
func (r *Ring) Len() int { return int(r.n) }

// At returns the i'th most recent target (0 = most recent). i must be in
// [0, Len); historyDepth is a power of two, so the slot wraps by masking.
func (r *Ring) At(i int) uint64 { return r.buf[(int(r.head)-i)&(historyDepth-1)] }

// pathHash deterministically mixes the `order` most recent targets of the
// requested stream (quantized to quantBits low bits each) with a per-site
// salt. The quantization bounds the reachable context space so correlated
// targets recur and are learnable.
func (c *Context) pathHash(s *Site, stream Stream, order int, quantBits uint) uint64 {
	var src *Ring
	switch stream {
	case PIB:
		src = &c.PIB
	case PB:
		src = &c.PB
	case Self:
		src = &s.self
	}
	h := mix(s.salt)
	mask := (uint64(1) << quantBits) - 1
	for i := range min(order, src.Len()) {
		h = mix(h ^ ((src.At(i) >> 4) & mask))
	}
	return h
}

func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Behavior produces the next target index for a site.
type Behavior interface {
	// Next returns the index into s.Targets for the site's next
	// execution.
	Next(ctx *Context, s *Site) int
	// String describes the behaviour for diagnostics.
	String() string
}

// Monomorphic sites overwhelmingly use their first target; Bias gives the
// probability (default 1.0) and the remaining mass spreads over the other
// targets. These are the branches a BTB already predicts and the Cascade
// filter isolates.
type Monomorphic struct {
	// Bias is the probability of target 0. Zero value means 1.0.
	Bias float64
}

// Next implements Behavior.
func (m Monomorphic) Next(ctx *Context, s *Site) int {
	bias := m.Bias
	if bias == 0 {
		bias = 1
	}
	if len(s.Targets) == 1 || ctx.RNG.Bool(bias) {
		return 0
	}
	return 1 + ctx.RNG.Intn(len(s.Targets)-1)
}

// String implements Behavior.
func (m Monomorphic) String() string { return "monomorphic" }

// LowEntropy sites stay on their current target and hop to another with a
// small probability — the "target changes infrequently" class that BTB2b
// hysteresis and the Cascade filter capture well.
type LowEntropy struct {
	// SwitchProb is the per-execution probability of hopping.
	SwitchProb float64
}

// Next implements Behavior.
func (l LowEntropy) Next(ctx *Context, s *Site) int {
	if ctx.RNG.Bool(l.SwitchProb) {
		s.cur = ctx.RNG.Intn(len(s.Targets))
	}
	return s.cur
}

// String implements Behavior.
func (l LowEntropy) String() string { return fmt.Sprintf("low-entropy(p=%g)", l.SwitchProb) }

// Correlated sites choose their next target as a deterministic hash of the
// most recent path history — PIB, PB or the site's own targets — with an
// optional noise fraction. These are the branches path-based predictors are
// built for; Order controls how much history is needed, so predictors whose
// effective path length is shorter than Order cannot capture the site.
type Correlated struct {
	Stream Stream
	// Order is the number of history targets the mapping depends on.
	Order int
	// Noise is the probability of a uniformly random target instead.
	Noise float64
	// QuantBits quantizes history targets in the mapping (default 6),
	// bounding the context space so it recurs.
	QuantBits uint
}

// Next implements Behavior.
func (c Correlated) Next(ctx *Context, s *Site) int {
	if ctx.RNG.Bool(c.Noise) {
		return ctx.RNG.Intn(len(s.Targets))
	}
	q := c.QuantBits
	if q == 0 {
		q = 6
	}
	h := ctx.pathHash(s, c.Stream, c.Order, q)
	return int(h % uint64(len(s.Targets)))
}

// String implements Behavior.
func (c Correlated) String() string {
	return fmt.Sprintf("correlated(%s,order=%d,noise=%g)", c.Stream, c.Order, c.Noise)
}

// CondDriven sites select their target from the taken bits of the most
// recent conditional-branch outcomes (read from the PB path as the taken
// bit encoded in each target's bit 6). This is the population that only a
// predictor observing all-branch path history — the hybrid PPM's PB
// register — can capture: the selecting data never appears in the
// indirect-branch stream. The mapping XOR-folds the outcome bits into the
// index so every observed bit matters; NumTargets should be <= 2^Order.
type CondDriven struct {
	// Order is the number of recent PB-path records consulted.
	Order int
	// Noise is the probability of a uniformly random target instead.
	Noise float64
}

// Next implements Behavior.
func (c CondDriven) Next(ctx *Context, s *Site) int {
	if ctx.RNG.Bool(c.Noise) {
		return ctx.RNG.Intn(len(s.Targets))
	}
	v := 0
	for i := range min(c.Order, ctx.PB.Len()) {
		v = v<<1 | int((ctx.PB.At(i)>>6)&1)
	}
	// XOR-fold v into the index width so every outcome bit influences the
	// selection even when the target count is small.
	width := 1
	for 1<<width < len(s.Targets) {
		width++
	}
	folded := 0
	for v != 0 {
		folded ^= v & (1<<width - 1)
		v >>= width
	}
	return folded % len(s.Targets)
}

// String implements Behavior.
func (c CondDriven) String() string {
	return fmt.Sprintf("cond-driven(order=%d,noise=%g)", c.Order, c.Noise)
}

// Cyclic sites walk their target list in order (a loop over a switch),
// giving perfect self/PIB order-1 correlation.
type Cyclic struct{}

// Next implements Behavior.
func (Cyclic) Next(_ *Context, s *Site) int {
	s.cur = (s.cur + 1) % len(s.Targets)
	return s.cur
}

// String implements Behavior.
func (Cyclic) String() string { return "cyclic" }

// Uniform sites pick uniformly at random — inherently unpredictable mass
// that sets the noise floor of a benchmark.
type Uniform struct{}

// Next implements Behavior.
func (Uniform) Next(ctx *Context, s *Site) int { return ctx.RNG.Intn(len(s.Targets)) }

// String implements Behavior.
func (Uniform) String() string { return "uniform" }
