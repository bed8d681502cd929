package workload

import (
	"fmt"

	"repro/internal/history"
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

	cur      int
	salt     uint64
	selfHist *history.PHR
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
	// gapMean is the mean number of non-branch instructions between
	// consecutive branch records.
	gapMean = 4.0
	// historyDepth bounds the generator-side history context.
	historyDepth = 16
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
			Spec:     spec,
			PC:       pc,
			Targets:  make([]uint64, spec.NumTargets),
			salt:     mix(uint64(i+1) * 0x9e3779b97f4a7c15),
			selfHist: history.New(history.AllBranches, historyDepth, 0, 0),
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

// Generate synthesizes the run, invoking emit for every branch record in
// program order, and returns the dynamic summary. Generation is fully
// deterministic for a given Config. Panics if the Config is invalid: no
// events, no sites, or a site with a bad target count or weight.
func (c Config) Generate(emit func(trace.Record)) Summary {
	if c.Events <= 0 {
		panic("workload: Events must be positive")
	}
	if len(c.Sites) == 0 {
		panic("workload: no sites")
	}
	patBits := c.CondPatternBits
	if patBits == 0 {
		patBits = 4
	}

	rng := NewRNG(c.Seed)
	ctx := &Context{
		RNG:     rng,
		PIBHist: history.New(history.IndirectBranches, historyDepth, 0, 0),
		PBHist:  history.New(history.AllBranches, historyDepth, 0, 0),
		scratch: make([]uint64, 0, historyDepth),
	}
	sites := buildSites(c.Sites, c.Seed)

	var sum Summary
	sum.Name, sum.Input = c.Name, c.Input
	sum.SiteExecs = make([]uint64, len(sites))

	write := func(rec trace.Record) {
		rec.Gap = uint32(rng.Poissonish(gapMean))
		sum.Instructions += uint64(rec.Gap) + 1
		sum.Records++
		ctx.PBHist.Observe(rec)
		ctx.PIBHist.Observe(rec)
		emit(rec)
	}

	// Weighted site selection setup.
	total := 0
	cum := make([]int, len(sites))
	for i, s := range sites {
		total += s.Spec.Weight
		cum[i] = total
	}
	pick := func(v int) *Site {
		lo, hi := 0, len(cum)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if v < cum[mid] {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return sites[lo]
	}
	chainOrder := c.ChainOrder
	if chainOrder < 1 {
		chainOrder = 1
	}
	lastIndirect := make([]uint64, chainOrder)
	chainSalt := mix(c.Seed ^ 0xc0ffee)
	// The chain state is the full most recent target plus coarse bits of
	// the older ones: the next site depends on deeper path context (which
	// short-history predictors cannot capture) while keeping the
	// re-convergence tail after a perturbation short.
	// chainQuant extracts the chain-visible bits of a target: bits 2-11
	// plus 16-19, skipping the cluster member bits (12-13) so data-driven
	// dispatches do not branch the control-flow orbit.
	chainQuant := func(t uint64) uint64 {
		return ((t >> 2) & 0x3ff) | (((t >> 16) & 0xf) << 10)
	}
	chainState := func() uint64 {
		h := mix(chainSalt ^ chainQuant(lastIndirect[0]))
		for _, t := range lastIndirect[1:] {
			h = mix(h ^ ((t >> 4) & 3))
		}
		return h
	}

	// Convert the ST/call rates into deterministic periods.
	period := func(rate float64) uint64 {
		if rate <= 0 {
			return 0
		}
		if rate >= 1 {
			return 1
		}
		return uint64(1/rate + 0.5)
	}
	stEvery := period(c.STRate)
	callEvery := period(c.CallRate)

	var patCtr uint64

	// Generator-state snapshots: a chain escape teleports the program back
	// to a previously visited control-flow configuration (an outer loop
	// re-entering a known phase) rather than into fresh state space, so
	// perturbations cost each predictor about one history-window of novel
	// contexts and no more.
	type snapshot struct {
		pib, pb history.State
		last    []uint64
	}
	var snaps []snapshot
	takeSnap := func() {
		sn := snapshot{
			pib:  ctx.PIBHist.Snapshot(),
			pb:   ctx.PBHist.Snapshot(),
			last: append([]uint64(nil), lastIndirect...),
		}
		if len(snaps) < 64 {
			snaps = append(snaps, sn)
		} else {
			snaps[int(patCtr/16)%64] = sn
		}
	}
	teleport := func() {
		if len(snaps) == 0 {
			return
		}
		sn := snaps[rng.Intn(len(snaps))]
		ctx.PIBHist.Restore(sn.pib)
		ctx.PBHist.Restore(sn.pb)
		copy(lastIndirect, sn.last)
	}

	for ev := 0; ev < c.Events; ev++ {
		patCtr++

		// Direct call / return pair; timing and callee rotate
		// deterministically so return targets recur in the PB history
		// the way loop bodies repeat in real code.
		if callEvery > 0 && mix(chainState()^0xca11)%callEvery == 0 {
			fn := mix(chainState()^0xf17) % 8
			callPC := uint64(funcBase) + 0x4000 + fn*0x8
			fnBase := uint64(funcBase) + fn*0x400
			write(trace.Record{PC: callPC, Target: fnBase, Class: trace.DirectCall, Taken: true})
			sum.CallsDynamic++
			write(trace.Record{PC: fnBase + 0x20, Target: callPC + 4, Class: trace.Return, Taken: true})
			sum.RetsDynamic++
		}

		// Single-target (GOT-style) indirect call, periodic and chained
		// off the last indirect target so its PIB-history pollution is
		// recurrent rather than context-splitting.
		if stEvery > 0 && mix(chainState()^0x60f)%stEvery == 0 {
			st := mix(lastIndirect[0]^0x57) % 6
			stPC := uint64(stBase) + st*0x100
			stTgt := uint64(stBase) + 0x10000 + st*0x400
			write(trace.Record{PC: stPC, Target: stTgt, Class: trace.IndirectJsr, Taken: true, MT: false})
			sum.STDynamic++
			write(trace.Record{PC: stTgt + 0x20, Target: stPC + 4, Class: trace.Return, Taken: true})
			sum.RetsDynamic++
		}

		// Conditional branch burst. The burst length and the outcome
		// pattern are deterministic functions of the pattern counter so
		// the all-branch (PB) path history revisits a bounded set of
		// contexts, the way loop-dominated real code does; CondNoise
		// mixes in data-dependent randomness.
		n := c.CondPerEvent
		if n > 0 {
			n += int(mix(chainState()^0x7777) & 1)
		}
		for i := 0; i < n; i++ {
			ci := i % condSites
			pc := uint64(condBase) + uint64(ci)*0x10
			var taken bool
			if rng.Bool(c.CondNoise) {
				taken = rng.Bool(condTakenBias)
			} else {
				taken = (patCtr>>(uint(ci)%patBits))&1 == 1
			}
			target := pc + 4
			if taken {
				// Bit 6 marks taken targets (CondDriven sites read it);
				// the site index lives in bits 8+ so the two never mix,
				// and the pair survives the predictors' 5-bit XOR folds.
				target = pc + 0x44 + uint64(ci)*0x100
			}
			write(trace.Record{PC: pc, Target: target, Class: trace.CondDirect, Taken: taken})
			sum.CondDynamic++
		}

		// The MT indirect dispatch event itself. Chained selection makes
		// the next site a deterministic function of recent indirect
		// targets (data-dependent control flow, as in interpreters and
		// visitor-pattern code); with probability ChainNoise the program
		// teleports back to an earlier configuration instead.
		if patCtr%16 == 0 {
			takeSnap()
		}
		var s *Site
		if c.ChainSites {
			if rng.Bool(c.ChainNoise) {
				teleport()
			}
			s = pick(int(chainState() % uint64(total)))
		} else {
			s = pick(rng.Intn(total))
		}
		idx := s.Spec.Behavior.Next(ctx, s)
		target := s.Targets[idx]
		mt := s.Spec.NumTargets > 1
		rec := trace.Record{PC: s.PC, Target: target, Class: s.Spec.Class, Taken: true, MT: mt}
		if mt && s.Spec.Class == trace.IndirectJmp {
			// Switch dispatch: expose the switch variable value (1-based
			// arm index) for the Case Block Table study.
			rec.Value = uint32(idx) + 1
		}
		write(rec)
		s.selfHist.Push(target)
		s.Execs++
		copy(lastIndirect[1:], lastIndirect)
		lastIndirect[0] = target
		if mt {
			sum.MTDynamic++
		} else {
			sum.STDynamic++
		}
		// Virtual/function-pointer calls return to the call site.
		if s.Spec.Class == trace.IndirectJsr {
			write(trace.Record{PC: target + 0x20, Target: s.PC + 4, Class: trace.Return, Taken: true})
			sum.RetsDynamic++
		}
	}

	sum.SiteByPC = make(map[uint64]string, len(sites))
	for i, s := range sites {
		sum.SiteExecs[i] = s.Execs
		if s.Spec.NumTargets > 1 {
			sum.MTStatic++
		}
		sum.SiteByPC[s.PC] = s.Spec.Label
	}
	return sum
}

// ExpectedRecords returns a deterministic upper bound on the number of
// records Generate emits, from the per-event worst case: the dispatch
// itself, its return when any site is an indirect call, the conditional
// burst (CondPerEvent plus the one-branch jitter), and the call/return and
// single-target pairs when their rates are enabled. Records preallocates
// this capacity so a run materializes without a single slice reallocation.
func (c Config) ExpectedRecords() int {
	if c.Events <= 0 {
		return 0
	}
	per := 1 // the MT/ST dispatch event
	if c.CondPerEvent > 0 {
		per += c.CondPerEvent + 1
	}
	if c.CallRate > 0 {
		per += 2
	}
	if c.STRate > 0 {
		per += 2
	}
	for _, s := range c.Sites {
		if s.Class == trace.IndirectJsr {
			per++ // indirect calls return to the call site
			break
		}
	}
	return c.Events * per
}

// Records generates the run into memory, preallocated to ExpectedRecords so
// the append loop never reallocates. It is the reference form the record
// engine replays in tests and checks; the experiment harness caches Blocks
// instead, and very long runs should stream via Generate.
func (c Config) Records() ([]trace.Record, Summary) {
	recs := make([]trace.Record, 0, c.ExpectedRecords())
	sum := c.Generate(func(r trace.Record) { recs = append(recs, r) })
	return recs, sum
}

// Blocks generates the run straight into its columnar form: records go
// from Generate into a trace.BlockBuilder, so no []trace.Record is ever
// materialized. The result equals trace.Blocks over Records' output.
func (c Config) Blocks() ([]trace.Block, Summary) {
	bb := trace.NewBlockBuilder(trace.BlockCap)
	sum := c.Generate(bb.Append)
	return bb.Blocks(), sum
}
