package workload

import (
	"math"
	"testing"

	"repro/internal/trace"
)

func tinyConfig() Config {
	return Config{
		Name: "tiny", Input: "t", Seed: 42, Events: 2000,
		Sites: []SiteSpec{
			{Label: "switch", Class: trace.IndirectJmp, NumTargets: 8,
				Behavior: Correlated{Stream: PIB, Order: 2, Noise: 0.01}, Weight: 5},
			{Label: "virt", Class: trace.IndirectJsr, NumTargets: 4,
				Behavior: Monomorphic{Bias: 0.99}, Weight: 3},
			{Label: "cd", Class: trace.IndirectJsr, NumTargets: 2, Cluster: true,
				Behavior: CondDriven{Order: 1}, Weight: 3},
		},
		ChainSites: true, ChainOrder: 2, ChainNoise: 0.01,
		CondPerEvent: 2, CondNoise: 0.5,
		STRate: 0.05, CallRate: 0.25,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := tinyConfig()
	a, sumA := cfg.Records()
	b, sumB := cfg.Records()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	if sumA.MTDynamic != sumB.MTDynamic || sumA.Instructions != sumB.Instructions {
		t.Error("summaries differ between identical runs")
	}
}

func TestGenerateSeedSensitivity(t *testing.T) {
	cfg := tinyConfig()
	a, _ := cfg.Records()
	cfg.Seed = 43
	b, _ := cfg.Records()
	same := 0
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] == b[i] {
			same++
		}
	}
	if same == n {
		t.Error("different seeds produced identical traces")
	}
}

func TestSummaryCounts(t *testing.T) {
	cfg := tinyConfig()
	recs, sum := cfg.Records()
	if sum.Records != uint64(len(recs)) {
		t.Errorf("Records = %d, emitted %d", sum.Records, len(recs))
	}
	var mt, cond, rets, st uint64
	var instr uint64
	for _, r := range recs {
		instr += uint64(r.Gap) + 1
		switch {
		case r.MTIndirect():
			mt++
		case r.Class == trace.CondDirect:
			cond++
		case r.Class == trace.Return:
			rets++
		case r.Class.Indirect() && !r.MT && r.Class != trace.Return:
			st++
		}
	}
	if mt != sum.MTDynamic {
		t.Errorf("MTDynamic = %d, counted %d", sum.MTDynamic, mt)
	}
	if cond != sum.CondDynamic {
		t.Errorf("CondDynamic = %d, counted %d", sum.CondDynamic, cond)
	}
	if rets != sum.RetsDynamic {
		t.Errorf("RetsDynamic = %d, counted %d", sum.RetsDynamic, rets)
	}
	if st != sum.STDynamic {
		t.Errorf("STDynamic = %d, counted %d", sum.STDynamic, st)
	}
	if instr != sum.Instructions {
		t.Errorf("Instructions = %d, counted %d", sum.Instructions, instr)
	}
	// Every event produces exactly one dispatch; all sites here have >=2
	// targets except none, so MTDynamic == Events.
	if sum.MTDynamic != uint64(cfg.Events) {
		t.Errorf("MTDynamic = %d, want %d", sum.MTDynamic, cfg.Events)
	}
	if sum.MTStatic != 3 {
		t.Errorf("MTStatic = %d, want 3", sum.MTStatic)
	}
}

func TestSiteByPCAndExecs(t *testing.T) {
	cfg := tinyConfig()
	recs, sum := cfg.Records()
	if len(sum.SiteByPC) != 3 {
		t.Fatalf("SiteByPC has %d entries, want 3", len(sum.SiteByPC))
	}
	counts := map[string]uint64{}
	for _, r := range recs {
		if r.MTIndirect() {
			label, ok := sum.SiteByPC[r.PC]
			if !ok {
				t.Fatalf("MT record at unknown pc %#x", r.PC)
			}
			counts[label]++
		}
	}
	var fromExecs uint64
	for _, e := range sum.SiteExecs {
		fromExecs += e
	}
	if fromExecs != sum.MTDynamic {
		t.Errorf("SiteExecs sum = %d, MTDynamic = %d", fromExecs, sum.MTDynamic)
	}
}

func TestReturnsAreWellNested(t *testing.T) {
	// Every jsr (ST or MT) and direct call is followed eventually by a
	// return to pc+4; a RAS of sufficient depth must predict essentially
	// all returns. This validates the generator's call discipline.
	cfg := tinyConfig()
	recs, _ := cfg.Records()
	var stack []uint64
	bad := 0
	for _, r := range recs {
		switch r.Class {
		case trace.DirectCall, trace.IndirectJsr:
			stack = append(stack, r.PC+4)
		case trace.Return:
			if len(stack) == 0 {
				bad++
				continue
			}
			want := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if r.Target != want {
				bad++
			}
		}
	}
	if bad != 0 {
		t.Errorf("%d returns did not match their call sites", bad)
	}
}

func TestClusterTargetInvariants(t *testing.T) {
	cfg := tinyConfig()
	recs, sum := cfg.Records()
	var clusterPC uint64
	for pc, label := range sum.SiteByPC {
		if label == "cd" {
			clusterPC = pc
		}
	}
	if clusterPC == 0 {
		t.Fatal("cluster site not found")
	}
	seen := map[uint64]bool{}
	for _, r := range recs {
		if r.PC == clusterPC {
			seen[r.Target] = true
		}
	}
	if len(seen) < 2 {
		t.Fatalf("cluster site used %d targets; the cond stream should drive both", len(seen))
	}
	var ref uint64
	for tgt := range seen {
		if ref == 0 {
			ref = tgt
		}
		// Members must agree outside bits 12-13.
		if tgt&^uint64(0x3000) != ref&^uint64(0x3000) {
			t.Errorf("cluster members differ outside bits 12-13: %#x vs %#x", tgt, ref)
		}
	}
}

func TestAlignmentConvention(t *testing.T) {
	recs, _ := tinyConfig().Records()
	for _, r := range recs {
		if r.Class == trace.IndirectJsr && r.MT && r.Target%16 != 0 {
			// Non-cluster jsr targets are 16-byte aligned procedure
			// entries; cluster targets are 4-byte (they carry bits
			// 12-13 but low 4 bits are still zero since base is
			// 16-aligned... base | k<<12 keeps %16 == 0 anyway).
			t.Fatalf("jsr target %#x not 16-byte aligned", r.Target)
		}
		if r.Target%4 != 0 || r.PC%4 != 0 {
			t.Fatalf("unaligned instruction address in %v", r)
		}
	}
}

func TestCondTakenBitConvention(t *testing.T) {
	// CondDriven reads bit 6 of conditional targets as the taken flag;
	// the generator must uphold that encoding.
	recs, _ := tinyConfig().Records()
	for _, r := range recs {
		if r.Class != trace.CondDirect {
			continue
		}
		bit := (r.Target >> 6) & 1
		if r.Taken && bit != 1 {
			t.Fatalf("taken cond target %#x lacks bit 6", r.Target)
		}
		if !r.Taken && bit != 0 {
			t.Fatalf("fall-through cond target %#x has bit 6 set", r.Target)
		}
	}
}

func TestBehaviors(t *testing.T) {
	ctx := &Context{RNG: NewRNG(7)}
	site := &Site{Targets: []uint64{10, 20, 30, 40}}

	if got := (Monomorphic{}).Next(ctx, site); got != 0 {
		t.Errorf("Monomorphic{} = %d, want 0", got)
	}
	cyc := Cyclic{}
	if a, b := cyc.Next(ctx, site), cyc.Next(ctx, site); b != (a+1)%4 {
		t.Errorf("Cyclic sequence %d,%d", a, b)
	}
	low := LowEntropy{SwitchProb: 0}
	site.cur = 2
	if got := low.Next(ctx, site); got != 2 {
		t.Errorf("LowEntropy(p=0) moved to %d", got)
	}
	// Correlated is deterministic given history and zero noise.
	ctx.PIB.Push(0x1230)
	ctx.PIB.Push(0x4560)
	c := Correlated{Stream: PIB, Order: 2}
	a := c.Next(ctx, site)
	if b := c.Next(ctx, site); a != b {
		t.Error("Correlated not deterministic under fixed history")
	}
	// Uniform stays in range.
	u := Uniform{}
	for i := 0; i < 100; i++ {
		if got := u.Next(ctx, site); got < 0 || got >= 4 {
			t.Fatalf("Uniform out of range: %d", got)
		}
	}
	// Strings are non-empty for diagnostics.
	for _, b := range []Behavior{Monomorphic{}, LowEntropy{}, Correlated{}, CondDriven{}, Cyclic{}, Uniform{}} {
		if b.String() == "" {
			t.Errorf("%T has empty String()", b)
		}
	}
}

// TestRing pins the generator's history ring: At reads newest first, Len
// saturates at historyDepth with the oldest target dropped, and a copy is
// a snapshot later pushes leave alone, which assigning back restores.
func TestRing(t *testing.T) {
	var r Ring
	if r.Len() != 0 {
		t.Fatalf("zero Ring holds %d targets", r.Len())
	}
	for v := uint64(1); v <= 3; v++ {
		r.Push(v)
	}
	if r.Len() != 3 || r.At(0) != 3 || r.At(2) != 1 {
		t.Fatalf("after 1,2,3: Len %d, At(0) %d, At(2) %d", r.Len(), r.At(0), r.At(2))
	}
	for v := uint64(4); v <= historyDepth+5; v++ {
		r.Push(v)
	}
	if r.Len() != historyDepth || r.At(0) != historyDepth+5 || r.At(historyDepth-1) != 6 {
		t.Fatalf("wrapped: Len %d, At(0) %d, oldest %d", r.Len(), r.At(0), r.At(historyDepth-1))
	}
	snap := r
	r.Push(100)
	if snap.At(0) != historyDepth+5 {
		t.Fatalf("push changed the snapshot: At(0) = %d", snap.At(0))
	}
	r = snap
	if r.At(0) != historyDepth+5 || r.At(historyDepth-1) != 6 {
		t.Fatalf("restore: At(0) %d, oldest %d", r.At(0), r.At(historyDepth-1))
	}
}

func TestCondDrivenReadsTakenBits(t *testing.T) {
	ctx := &Context{RNG: NewRNG(7)}
	site := &Site{Targets: []uint64{100, 200}}
	cd := CondDriven{Order: 1}
	ctx.PB.Push(0x13000004) // bit 6 clear: not taken
	a := cd.Next(ctx, site)
	ctx.PB.Push(0x13000044) // bit 6 set: taken
	b := cd.Next(ctx, site)
	if a == b {
		t.Error("CondDriven ignored the taken bit")
	}
}

func TestRNG(t *testing.T) {
	r := NewRNG(1)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) != 1000 {
		t.Error("RNG repeated within 1000 draws")
	}
	r2 := NewRNG(0) // zero seed remapped, must not be degenerate
	if r2.Uint64() == r2.Uint64() {
		t.Error("zero-seed RNG degenerate")
	}
	for i := 0; i < 100; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %f", f)
		}
	}
	if r.Bool(0) || !r.Bool(1) {
		t.Error("Bool degenerate probabilities wrong")
	}
}

func TestGeneratePanics(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "x", Events: 0, Sites: tinyConfig().Sites},
		{Name: "x", Events: 10},
		{Name: "x", Events: 10, Sites: []SiteSpec{{Label: "bad", NumTargets: 0, Weight: 1, Behavior: Uniform{}}}},
		{Name: "x", Events: 10, Sites: []SiteSpec{{Label: "bad", NumTargets: 2, Weight: 0, Behavior: Uniform{}}}},
		{Name: "x", Events: 10, Sites: []SiteSpec{{Label: "bad", NumTargets: 9, Weight: 1, Cluster: true, Behavior: Uniform{}}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg.Sites)
				}
			}()
			cfg.Generate(func(trace.Record) {})
		}()
	}
}

func TestConfigString(t *testing.T) {
	if (Config{Name: "perl", Input: "exp"}).String() != "perl.exp" {
		t.Error("Config.String with input")
	}
	if (Config{Name: "eqn"}).String() != "eqn" {
		t.Error("Config.String without input")
	}
}

// TestRecordsNeverReallocates pins Records' sizing: the flatten of Blocks
// allocates the record slice once at the run's exact length, so no
// capacity is left over and none was grown into.
func TestRecordsNeverReallocates(t *testing.T) {
	cfgs := []Config{
		{Name: "plain", Seed: 1, Events: 3000,
			Sites: []SiteSpec{{Label: "s", Class: trace.IndirectJmp, NumTargets: 4, Behavior: Uniform{}, Weight: 1}}},
		{Name: "jsr", Seed: 2, Events: 3000, CondPerEvent: 3, STRate: 0.05, CallRate: 0.3,
			Sites: []SiteSpec{
				{Label: "v", Class: trace.IndirectJsr, NumTargets: 4, Behavior: Uniform{}, Weight: 2},
				{Label: "j", Class: trace.IndirectJmp, NumTargets: 8, Behavior: Cyclic{}, Weight: 1},
			}},
		{Name: "chained", Seed: 3, Events: 3000, CondPerEvent: 1, CallRate: 1,
			ChainSites: true, ChainNoise: 0.01,
			Sites: []SiteSpec{{Label: "c", Class: trace.IndirectJsr, NumTargets: 3, Behavior: Monomorphic{Bias: 0.9}, Weight: 1}}},
	}
	for _, cfg := range cfgs {
		recs, sum := cfg.Records()
		if cap(recs) != len(recs) || uint64(len(recs)) != sum.Records {
			t.Errorf("%s: cap %d, len %d, summary %d records; want all equal", cfg.Name, cap(recs), len(recs), sum.Records)
		}
	}
}

// TestGapDrawMatchesFloat holds the integer gap draw to the float form it
// replaced, round(4·(0.5+f)) with f = k/2^53: at every k within 65,536 of
// each threshold, at both ends of the range, and over a million splitmix
// draws.
func TestGapDrawMatchesFloat(t *testing.T) {
	float := func(k uint64) uint32 {
		f := float64(k) / float64(1<<53)
		return uint32(math.Round(4 * (0.5 + f)))
	}
	check := func(k uint64) {
		if got, want := gapOf(k), float(k); got != want {
			t.Fatalf("gapOf(%#x) = %d, float form %d", k, got, want)
		}
	}
	const span = 1 << 16
	for _, th := range []uint64{gap3, gap4, gap5, gap6} {
		for k := th - span; k <= th+span; k++ {
			check(k)
		}
	}
	for k := uint64(0); k <= span; k++ {
		check(k)
		check(1<<53 - 1 - k)
	}
	r := NewRNG(1)
	for range 1_000_000 {
		check(r.Uint64() >> 11)
	}
}
