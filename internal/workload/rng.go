// Package workload generates synthetic Alpha-like branch trace streams that
// stand in for the paper's ATOM-captured traces. Each benchmark is modelled
// as a weighted set of indirect branch sites whose next target is a
// deterministic-plus-noise function of the actual emitted path history, so
// the statistical structure the predictors exploit (correlation type and
// order, polymorphism degree, entropy, hot-site aliasing) is reproduced
// even though the instruction streams are synthetic. See DESIGN.md for the
// substitution rationale.
//
// One generator (driver.go) serves every entry point. It writes each
// record straight into the lanes of a trace.Block, keeps its path
// histories in fixed 16-deep Rings and copies them into preallocated slots
// when it snapshots, so it builds no trace.Record and allocates nothing per
// record or snapshot. Blocks keeps the blocks it fills, Records flattens
// them, and Generate streams their records through one reused block, so
// cmd/tracegen and other streaming consumers run in bounded memory.
package workload

// RNG is a splitmix64 pseudo-random generator: tiny, fast, and fully
// deterministic per seed so every experiment is reproducible bit-for-bit.
type RNG struct {
	state uint64
}

// NewRNG seeds a generator. Seed 0 is remapped so the stream is never
// degenerate.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Intn returns a pseudo-random int in [0, n). Panics if n is not positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("workload: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}
