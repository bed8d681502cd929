package workload

import (
	"fmt"

	"repro/internal/trace"
)

// SiteSpec declares one static indirect branch site of a benchmark model.
type SiteSpec struct {
	// Label names the site family for diagnostics.
	Label string
	// Class is trace.IndirectJmp (switch dispatch) or trace.IndirectJsr
	// (virtual/function-pointer call).
	Class trace.Class
	// NumTargets is the site's polymorphism degree (>= 1). Sites with
	// NumTargets == 1 are emitted as single-target (MT bit clear).
	NumTargets int
	// Behavior chooses among the targets at run time.
	Behavior Behavior
	// Weight is the site's relative dynamic execution frequency.
	Weight int
	// Cluster allocates the site's targets within one aligned block so
	// they differ only in bits 12-13. Such targets look identical to the
	// coarse views other components take of them (2-low-bit history
	// records, 6-bit behaviour quantization, the chain map), so the
	// information distinguishing them is visible only to predictors that
	// record wide target slices — modelling dispatch targets whose
	// selection is driven by data invisible in the indirect-branch
	// stream. Requires NumTargets <= 4.
	Cluster bool
}

// Site is the runtime instance of a SiteSpec with assigned addresses.
type Site struct {
	Spec    SiteSpec
	PC      uint64
	Targets []uint64
	Execs   uint64

	cur  int
	salt uint64
	self Ring // the site's own previous targets
}

// Config describes one benchmark run: its indirect branch sites plus the
// surrounding program activity (conditional branches, calls/returns,
// single-target indirect calls) that shapes the PB path history.
type Config struct {
	// Name and Input identify the run, Table 1 style ("troff", "ped").
	Name  string
	Input string
	// Seed drives all pseudo-randomness.
	Seed uint64
	// Events is the number of MT indirect dispatch events to emit.
	Events int
	// Sites are the MT (and optionally ST) indirect branch sites.
	Sites []SiteSpec
	// CondPerEvent is the mean number of conditional branches emitted
	// before each dispatch event.
	CondPerEvent int
	// CondNoise is the probability a conditional outcome is random
	// rather than pattern-driven (taken with probability condTakenBias).
	CondNoise float64
	// CondPatternBits sets the period (2^bits) of the deterministic
	// conditional outcome pattern (default 4 -> period 16). A small
	// period keeps PB history tuples recurrent and learnable.
	CondPatternBits uint
	// STRate is the per-event probability of a single-target indirect
	// call (a GOT/DLL-style jsr, MT bit clear).
	STRate float64
	// CallRate is the per-event probability of a direct call/return pair.
	CallRate float64
	// ChainSites selects Markovian site sequencing: the next dispatch
	// site is derived from the most recent indirect target(s), modelling
	// data-dependent control flow; ChainNoise mixes in random selection.
	// ChainOrder sets how many recent targets determine the next site
	// (default 1); deeper chains defeat predictors whose effective path
	// length is shorter than the chain.
	ChainSites bool
	ChainNoise float64
	ChainOrder int
}

// Program shape every run shares.
const (
	// condSites is the number of distinct conditional branch addresses.
	condSites = 16
	// condTakenBias is the taken probability of a random conditional
	// outcome.
	condTakenBias = 0.6
	// historyDepth bounds the generator-side history context (a Ring's
	// depth); it must be a power of two.
	historyDepth = 16
	// snapSlots is how many earlier configurations a chain escape can
	// return to.
	snapSlots = 64
)

func (c Config) String() string {
	if c.Input == "" {
		return c.Name
	}
	return c.Name + "." + c.Input
}

// Summary reports the dynamic characteristics of a generated run — the
// quantities Table 1 of the paper lists.
type Summary struct {
	Name         string
	Input        string
	Instructions uint64 // total instructions (branches + gap filler)
	Records      uint64 // committed branch records
	MTStatic     int    // static MT sites
	MTDynamic    uint64 // dynamic MT jsr+jmp executions
	STDynamic    uint64
	CondDynamic  uint64
	CallsDynamic uint64
	RetsDynamic  uint64
	SiteExecs    []uint64 // per SiteSpec, in declaration order
	// SiteByPC maps each MT site's branch address to its spec label,
	// for per-population accuracy attribution in diagnostics and tests.
	SiteByPC map[uint64]string
}

// Address-space layout constants (Alpha-flavoured, 4-byte instructions).
const (
	siteBase   = 0x1_2000_0000
	targetBase = 0x1_4000_0000
	condBase   = 0x1_3000_0000
	funcBase   = 0x1_5000_0000
	stBase     = 0x1_6000_0000
)

func buildSites(specs []SiteSpec, seed uint64) []*Site {
	sites := make([]*Site, len(specs))
	tgtCtr := uint64(0)
	used := make(map[uint64]bool)
	usedTgt := make(map[uint64]bool)
	// Targets are scattered addresses: the predictors under study select,
	// fold and XOR the low-order bits of targets, so the synthetic address
	// stream must exercise those bits the way real code addresses do.
	// Branch targets (switch arms, basic blocks) are 4-byte aligned;
	// procedure entries — the targets of indirect calls — are 16-byte
	// aligned, as Alpha compilers align them, which is why designs that
	// record only the 2 lowest-order target bits lose information on
	// call-heavy C++ code.
	nextTarget := func(seed uint64, align uint64) uint64 {
		for {
			tgtCtr++
			t := uint64(targetBase) | ((mix(seed^tgtCtr*0x9e3779b97f4a7c15) & 0x3fffff) << 2)
			t &^= align - 1
			if !usedTgt[t] {
				usedTgt[t] = true
				return t
			}
		}
	}
	for i, spec := range specs {
		if spec.NumTargets < 1 {
			panic(fmt.Sprintf("workload: site %q has %d targets", spec.Label, spec.NumTargets))
		}
		if spec.Weight < 1 {
			panic(fmt.Sprintf("workload: site %q has non-positive weight", spec.Label))
		}
		// Scatter site addresses across the text segment the way real
		// code lays out, so direct-mapped structures see realistic
		// (not adversarially regular) index distributions.
		pc := uint64(siteBase) | ((mix(seed+uint64(i)*0x9e37) & 0xfffff) << 2)
		for used[pc] {
			pc += 4
		}
		used[pc] = true
		s := &Site{
			Spec:    spec,
			PC:      pc,
			Targets: make([]uint64, spec.NumTargets),
			salt:    mix(uint64(i+1) * 0x9e3779b97f4a7c15),
		}
		align := uint64(4)
		if spec.Class == trace.IndirectJsr || spec.Class == trace.JsrCoroutine {
			align = 16
		}
		if spec.Cluster {
			if spec.NumTargets > 4 {
				panic(fmt.Sprintf("workload: clustered site %q has %d > 4 targets", spec.Label, spec.NumTargets))
			}
			// One block per clustered site, disjoint from the scattered
			// target region; members differ only in bits 12-13 — outside
			// every predictor's context view (2-low-bit records, SFSXS
			// 10-bit selects, behaviour quantization, the chain map), so
			// cluster executions never split path-history contexts.
			base := uint64(targetBase) | 0x4000_0000 | (uint64(i) << 14)
			for t := range s.Targets {
				s.Targets[t] = base | (uint64(t) << 12)
			}
		} else {
			for t := range s.Targets {
				s.Targets[t] = nextTarget(seed, align)
			}
		}
		sites[i] = s
	}
	return sites
}

// A record's gap (the non-branch instructions retired before it) is
// round(4·(0.5+f)) for f = k/2^53 uniform in [0, 1): an integer in [2, 6]
// with mean 4. In float64 the sum 0.5+f is itself rounded, half to even,
// before the final round, so the four rounding thresholds fall at these
// exact values of k. Below 0.5+f = 1 the sum is exact, and 4(0.5+f)
// reaches 2.5 and 3.5 at k = 1<<50 and 3<<50. From 1 on the sum keeps
// 52 fraction bits, so one step below 5<<50 and 7<<50 it lands halfway
// between two float64s and rounds to the even one: 1.125 and 1.375, the
// thresholds themselves.
const (
	gap3 = 1 << 50
	gap4 = 3 << 50
	gap5 = 5<<50 - 1
	gap6 = 7<<50 - 1
)

// gapOf maps 53 uniform bits k to a record's gap. Each (t-1-k)>>63 term
// is 1 exactly when k >= t, since k and t are both below 1<<53.
func gapOf(k uint64) uint32 {
	return uint32(2 + (gap3-1-k)>>63 + (gap4-1-k)>>63 + (gap5-1-k)>>63 + (gap6-1-k)>>63)
}

// Meta bytes of the records whose class is fixed.
const (
	callMeta = uint8(trace.DirectCall) | trace.MetaTaken
	retMeta  = uint8(trace.Return) | trace.MetaTaken
	stMeta   = uint8(trace.IndirectJsr) | trace.MetaTaken
	condMeta = uint8(trace.CondDirect)
)

// generator is the one trace generator behind Generate, Blocks and
// Records. It runs a Config's event loop and writes each record straight
// into the lanes of the block being filled. Every write site knows its
// record's class, so a record costs a gap draw, four lane stores and a PB
// push, plus an index-lane append and a PIB push for an indirect jmp/jsr.
type generator struct {
	cfg       Config
	rng       RNG
	ctx       Context
	sites     []*Site
	cum       []int // cumulative site weights
	total     int
	patBits   uint
	stEvery   uint64
	callEvery uint64
	chainSalt uint64
	patCtr    uint64
	// last holds the most recent dispatch targets, newest first.
	last []uint64

	// Generator-state snapshots: a chain escape teleports the program back
	// to a previously visited control-flow configuration (an outer loop
	// re-entering a known phase) rather than into fresh state space, so
	// perturbations cost each predictor about one history-window of novel
	// contexts and no more. Slot i holds the rings in snaps[i] and the last
	// targets in snapLast[i*len(last):]; taking one copies into its slot.
	snaps    [snapSlots]struct{ pib, pb Ring }
	snapLast []uint64
	nsnaps   int

	// The block being filled: record lanes of BlockCap entries, the first
	// n of them written. value stays nil until a record carries a switch
	// value.
	pc, target    []uint64
	meta          []uint8
	gap, value    []uint32
	mtIdx, pibIdx []int32
	n             int
	gapSum        uint64
	emit          func(trace.Record) // non-nil: emit each block's records and refill its lanes
	blks          []trace.Block      // otherwise: the finished blocks
	sum           Summary
}

func newGenerator(c Config, emit func(trace.Record)) *generator {
	if c.Events <= 0 {
		panic("workload: Events must be positive")
	}
	if len(c.Sites) == 0 {
		panic("workload: no sites")
	}
	g := &generator{
		cfg:       c,
		rng:       *NewRNG(c.Seed),
		sites:     buildSites(c.Sites, c.Seed),
		patBits:   c.CondPatternBits,
		stEvery:   period(c.STRate),
		callEvery: period(c.CallRate),
		chainSalt: mix(c.Seed ^ 0xc0ffee),
		emit:      emit,
	}
	g.ctx.RNG = &g.rng
	if g.patBits == 0 {
		g.patBits = 4
	}
	g.cum = make([]int, len(g.sites))
	for i, s := range g.sites {
		g.total += s.Spec.Weight
		g.cum[i] = g.total
	}
	chainOrder := max(c.ChainOrder, 1)
	g.last = make([]uint64, chainOrder)
	g.snapLast = make([]uint64, snapSlots*chainOrder)
	g.sum.Name, g.sum.Input = c.Name, c.Input
	return g
}

// period converts a per-event rate into a deterministic period (0: never).
func period(rate float64) uint64 {
	if rate <= 0 {
		return 0
	}
	if rate >= 1 {
		return 1
	}
	return uint64(1/rate + 0.5)
}

// chainQuant extracts the chain-visible bits of a target: bits 2-11 plus
// 16-19, skipping the cluster member bits (12-13) so data-driven
// dispatches do not branch the control-flow orbit.
func chainQuant(t uint64) uint64 {
	return ((t >> 2) & 0x3ff) | (((t >> 16) & 0xf) << 10)
}

// chainState is the full most recent dispatch target plus coarse bits of
// the older ones: the next site depends on deeper path context (which
// short-history predictors cannot capture) while keeping the
// re-convergence tail after a perturbation short. Only a dispatch or a
// teleport changes it.
func (g *generator) chainState() uint64 {
	h := mix(g.chainSalt ^ chainQuant(g.last[0]))
	for _, t := range g.last[1:] {
		h = mix(h ^ ((t >> 4) & 3))
	}
	return h
}

// pick returns the site whose cumulative weight range holds v.
func (g *generator) pick(v int) *Site {
	lo, hi := 0, len(g.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if v < g.cum[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return g.sites[lo]
}

// takeSnap records the current configuration, filling the slots in order
// and then overwriting them in rotation.
func (g *generator) takeSnap() {
	slot := g.nsnaps
	if slot < snapSlots {
		g.nsnaps++
	} else {
		slot = int(g.patCtr/16) % snapSlots
	}
	g.snaps[slot].pib, g.snaps[slot].pb = g.ctx.PIB, g.ctx.PB
	copy(g.snapLast[slot*len(g.last):], g.last)
}

// teleport restores a randomly chosen recorded configuration and reports
// whether there was one to restore.
func (g *generator) teleport() bool {
	if g.nsnaps == 0 {
		return false
	}
	slot := g.rng.Intn(g.nsnaps)
	g.ctx.PIB, g.ctx.PB = g.snaps[slot].pib, g.snaps[slot].pb
	k := len(g.last)
	copy(g.last, g.snapLast[slot*k:(slot+1)*k])
	return true
}

// put writes one record into the block being filled, making room first
// when it is full, and returns the record's position in the block.
func (g *generator) put(pc, target uint64, meta uint8) int32 {
	if g.n == len(g.meta) {
		g.next()
	}
	i := g.n
	g.n++
	gap := gapOf(g.rng.Uint64() >> 11)
	g.pc[i], g.target[i], g.meta[i], g.gap[i] = pc, target, meta, gap
	g.gapSum += uint64(gap)
	g.ctx.PB.Push(target)
	return int32(i)
}

// putIndirect writes an indirect jmp/jsr record: put, plus its index-lane
// entries and its PIB push.
func (g *generator) putIndirect(pc, target uint64, meta uint8) int32 {
	i := g.put(pc, target, meta)
	g.pibIdx = append(g.pibIdx, i)
	if meta&trace.MetaMT != 0 {
		g.mtIdx = append(g.mtIdx, i)
	}
	g.ctx.PIB.Push(target)
	return i
}

// next finishes the full block and readies lanes for the following one:
// fresh lanes for Blocks, the emitted block's own lanes for Generate.
func (g *generator) next() {
	g.finish()
	if g.emit != nil && g.meta != nil {
		clear(g.value)
		g.mtIdx, g.pibIdx = g.mtIdx[:0], g.pibIdx[:0]
		return
	}
	g.pc = make([]uint64, trace.BlockCap)
	g.target = make([]uint64, trace.BlockCap)
	g.meta = make([]uint8, trace.BlockCap)
	g.gap = make([]uint32, trace.BlockCap)
	g.value, g.mtIdx, g.pibIdx = nil, nil, nil
}

// finish hands over the block being filled, if it holds any records:
// Blocks keeps it, Generate emits its records.
func (g *generator) finish() {
	n := g.n
	if n == 0 {
		return
	}
	b := trace.Block{
		PC: g.pc[:n], Target: g.target[:n], Meta: g.meta[:n], Gap: g.gap[:n],
		MTIdx: g.mtIdx, PIBIdx: g.pibIdx, GapSum: g.gapSum,
	}
	if g.value != nil {
		b.Value = g.value[:n]
	}
	g.sum.Records += uint64(n)
	g.sum.Instructions += g.gapSum + uint64(n)
	g.n, g.gapSum = 0, 0
	if g.emit == nil {
		g.blks = append(g.blks, b)
		return
	}
	for i := range n {
		g.emit(b.Record(i))
	}
}

// run generates every event, finishes the last block and returns the
// summary.
func (g *generator) run() Summary {
	for range g.cfg.Events {
		g.event()
	}
	g.finish()
	sum := &g.sum
	sum.SiteExecs = make([]uint64, len(g.sites))
	sum.SiteByPC = make(map[uint64]string, len(g.sites))
	for i, s := range g.sites {
		sum.SiteExecs[i] = s.Execs
		if s.Spec.NumTargets > 1 {
			sum.MTStatic++
		}
		sum.SiteByPC[s.PC] = s.Spec.Label
	}
	return *sum
}

// event generates one dispatch event and the program activity before it.
func (g *generator) event() {
	c := &g.cfg
	g.patCtr++
	cs := g.chainState()

	// Direct call / return pair; timing and callee rotate
	// deterministically so return targets recur in the PB history
	// the way loop bodies repeat in real code.
	if g.callEvery > 0 && mix(cs^0xca11)%g.callEvery == 0 {
		fn := mix(cs^0xf17) % 8
		callPC := uint64(funcBase) + 0x4000 + fn*0x8
		fnBase := uint64(funcBase) + fn*0x400
		g.put(callPC, fnBase, callMeta)
		g.put(fnBase+0x20, callPC+4, retMeta)
		g.sum.CallsDynamic++
		g.sum.RetsDynamic++
	}

	// Single-target (GOT-style) indirect call, periodic and chained
	// off the last indirect target so its PIB-history pollution is
	// recurrent rather than context-splitting.
	if g.stEvery > 0 && mix(cs^0x60f)%g.stEvery == 0 {
		st := mix(g.last[0]^0x57) % 6
		stPC := uint64(stBase) + st*0x100
		stTgt := uint64(stBase) + 0x10000 + st*0x400
		g.putIndirect(stPC, stTgt, stMeta)
		g.put(stTgt+0x20, stPC+4, retMeta)
		g.sum.STDynamic++
		g.sum.RetsDynamic++
	}

	// Conditional branch burst. The burst length and the outcome
	// pattern are deterministic functions of the pattern counter so
	// the all-branch (PB) path history revisits a bounded set of
	// contexts, the way loop-dominated real code does; CondNoise
	// mixes in data-dependent randomness.
	n := c.CondPerEvent
	if n > 0 {
		n += int(mix(cs^0x7777) & 1)
	}
	for i := range n {
		ci := i % condSites
		pc := uint64(condBase) + uint64(ci)*0x10
		var taken bool
		if g.rng.Bool(c.CondNoise) {
			taken = g.rng.Bool(condTakenBias)
		} else {
			taken = (g.patCtr>>(uint(ci)%g.patBits))&1 == 1
		}
		if taken {
			// Bit 6 marks taken targets (CondDriven sites read it);
			// the site index lives in bits 8+ so the two never mix,
			// and the pair survives the predictors' 5-bit XOR folds.
			g.put(pc, pc+0x44+uint64(ci)*0x100, condMeta|trace.MetaTaken)
		} else {
			g.put(pc, pc+4, condMeta)
		}
		g.sum.CondDynamic++
	}

	// The MT indirect dispatch event itself. Chained selection makes
	// the next site a deterministic function of recent indirect
	// targets (data-dependent control flow, as in interpreters and
	// visitor-pattern code); with probability ChainNoise the program
	// teleports back to an earlier configuration instead.
	if g.patCtr%16 == 0 {
		g.takeSnap()
	}
	var s *Site
	if c.ChainSites {
		if g.rng.Bool(c.ChainNoise) && g.teleport() {
			cs = g.chainState()
		}
		s = g.pick(int(cs % uint64(g.total)))
	} else {
		s = g.pick(g.rng.Intn(g.total))
	}
	idx := s.Spec.Behavior.Next(&g.ctx, s)
	target := s.Targets[idx]
	cls := s.Spec.Class
	mt := s.Spec.NumTargets > 1
	meta := uint8(cls)&trace.MetaClassMask | trace.MetaTaken
	if mt {
		meta |= trace.MetaMT
	}
	var i int32
	if cls == trace.IndirectJmp || cls == trace.IndirectJsr {
		i = g.putIndirect(s.PC, target, meta)
	} else {
		i = g.put(s.PC, target, meta)
	}
	if mt && cls == trace.IndirectJmp {
		// Switch dispatch: expose the switch variable value (1-based
		// arm index) for the Case Block Table study.
		if g.value == nil {
			g.value = make([]uint32, trace.BlockCap)
		}
		g.value[i] = uint32(idx) + 1
	}
	s.self.Push(target)
	s.Execs++
	copy(g.last[1:], g.last)
	g.last[0] = target
	if mt {
		g.sum.MTDynamic++
	} else {
		g.sum.STDynamic++
	}
	// Virtual/function-pointer calls return to the call site.
	if cls == trace.IndirectJsr {
		g.put(target+0x20, s.PC+4, retMeta)
		g.sum.RetsDynamic++
	}
}

// Generate synthesizes the run, invoking emit for every branch record in
// program order, and returns the dynamic summary. It streams: the
// generator fills one block's lanes, emits its records and refills the
// same lanes, so memory stays bounded however long the run. Generation is
// fully deterministic for a given Config. Panics if emit is nil or the
// Config is invalid: no events, no sites, or a site with a bad target
// count or weight.
func (c Config) Generate(emit func(trace.Record)) Summary {
	if emit == nil {
		panic("workload: Generate with a nil emit")
	}
	return newGenerator(c, emit).run()
}

// Blocks generates the run straight into its columnar form: the generator
// writes each record into the lanes of a BlockCap-record block, and
// trace.Trim sizes the result as it does trace.Blocks', so the blocks
// equal trace.Blocks over Records' output, footprint included. This is the
// form the experiment harness caches. Panics on an invalid Config, as
// Generate does.
func (c Config) Blocks() ([]trace.Block, Summary) {
	g := newGenerator(c, nil)
	sum := g.run()
	return trace.Trim(g.blks), sum
}

// Records generates the run into memory as a record slice sized exactly to
// the run: the flatten of Blocks. It is the reference form the record
// engine replays in tests and checks; very long runs should stream via
// Generate. Panics on an invalid Config, as Generate does.
func (c Config) Records() ([]trace.Record, Summary) {
	blks, sum := c.Blocks()
	return trace.BlocksRecords(blks), sum
}
