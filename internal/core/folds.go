package core

import (
	"repro/internal/hashing"
	"repro/internal/history"
)

// foldRingCap is a fold ring's size: a power of two no smaller than the
// largest order Config.validate accepts, so ring indices wrap by masking
// and the compiler proves every access in bounds.
const foldRingCap = 32

// foldRing mirrors a path history register with the SFSXS fold of each
// recorded target (hashing.SFSXSNest's folds), most recent first, so a
// lookup nests the per-order hashes without refolding the path. Each fold is
// stored twice, foldRingCap slots apart, so the most recent folds always
// start at buf[head] as one contiguous run of foldRingCap. Slots not yet
// pushed hold zero, the fold a zeroed register contributes; slots past the
// register's depth are never read.
//
// A ring is derived state: snapshots carry only the register, and loading
// rebuilds the ring from it (rebuild).
type foldRing struct {
	buf  [2 * foldRingCap]uint64
	head uint // index in [0, foldRingCap) of the most recent fold
}

// push records the fold of the target just shifted into the register.
//
//ppm:hotpath per-record history-register shift
func (r *foldRing) push(g uint64) {
	h := (r.head + (foldRingCap - 1)) & (foldRingCap - 1) // head-1, wrapped
	r.buf[h] = g
	r.buf[h+foldRingCap] = g
	r.head = h
}

// window returns the foldRingCap most recent folds, most recent first.
//
//ppm:hotpath per-lookup index-hash helper; runs once per table probe
func (r *foldRing) window() []uint64 {
	h := r.head & (foldRingCap - 1)
	return r.buf[h : h+foldRingCap]
}

// rebuild refolds the register's recorded targets with fold, as pushing
// them into a cleared ring would.
func (r *foldRing) rebuild(phr *history.PHR, fold func(uint64) uint64) {
	r.reset()
	for i := range phr.Len() {
		g := fold(phr.Peek(i))
		r.buf[i], r.buf[i+foldRingCap] = g, g
	}
}

// reset clears the ring to its power-up state.
func (r *foldRing) reset() {
	clear(r.buf[:])
	r.head = 0
}

// fold is the SFSXS fold of one recorded target.
//
//ppm:hotpath per-record history-register shift
func (p *PPM) fold(target uint64) uint64 {
	return hashing.Fold(target>>2, p.cfg.TargetBits, p.cfg.FoldBits)
}

// push shifts a committed target into the PB register and, for a PIB
// record, into the PIB register, with its fold into the fold rings kept
// beside them: the PB ring, which only the hybrid modes keep, and the PIB
// ring. The target is folded at most once, and only if a ring records it.
// Observe and every block walk advance the history here.
//
//ppm:hotpath per-record history-register shift
func (p *PPM) push(target uint64, pib bool) {
	p.pb.Push(target)
	if p.pbFolds == nil && !pib {
		return
	}
	g := p.fold(target)
	if p.pbFolds != nil {
		p.pbFolds.push(g)
	}
	if pib {
		p.pib.Push(target)
		p.pibFolds.push(g)
	}
}
