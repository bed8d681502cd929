package serve

import (
	"math"
	"sort"
	"testing"
	"time"
)

// splitmix64 gives the tests a deterministic stream without math/rand.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) float() float64 {
	return float64(s.next()>>11) / float64(1<<53)
}

func TestP2PanicsOutsideUnitInterval(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newP2(%v) did not panic", p)
				}
			}()
			newP2(p)
		}()
	}
}

func TestP2SmallSampleExact(t *testing.T) {
	s := newP2(0.5)
	if s.Quantile() != 0 {
		t.Fatalf("empty sketch quantile = %v", s.Quantile())
	}
	s.Observe(9)
	s.Observe(1)
	s.Observe(5)
	// With fewer than five samples the estimate is the exact order
	// statistic of what has been seen.
	if got := s.Quantile(); got != 5 {
		t.Errorf("median of {9,1,5} = %v, want 5", got)
	}
	if s.Count() != 3 {
		t.Errorf("Count = %d", s.Count())
	}
}

// TestP2TracksKnownQuantiles feeds deterministic streams and checks the
// estimate against the exact order statistic within the few-percent error
// P² promises.
func TestP2TracksKnownQuantiles(t *testing.T) {
	const n = 20_000
	streams := map[string]func(rng *splitmix64) float64{
		"uniform": func(rng *splitmix64) float64 { return rng.float() * 100 },
		// Heavy right tail, the shape job latencies actually have.
		"exponential-ish": func(rng *splitmix64) float64 {
			return -25 * math.Log(1-rng.float())
		},
	}
	for name, gen := range streams {
		for _, p := range []float64{0.5, 0.9, 0.99} {
			rng := splitmix64(0x5eed)
			sketch := newP2(p)
			exact := make([]float64, 0, n)
			for i := 0; i < n; i++ {
				x := gen(&rng)
				sketch.Observe(x)
				exact = append(exact, x)
			}
			sort.Float64s(exact)
			want := exact[int(p*float64(n))]
			got := sketch.Quantile()
			// Tolerance: 5% of the exact value, floored for tiny quantiles.
			tol := 0.05 * want
			if tol < 0.5 {
				tol = 0.5
			}
			if math.Abs(got-want) > tol {
				t.Errorf("%s p%g: sketch %.3f vs exact %.3f (tol %.3f)", name, p*100, got, want, tol)
			}
		}
	}
}

func TestP2MonotoneInQuantile(t *testing.T) {
	rng := splitmix64(42)
	p50, p90, p99 := newP2(0.5), newP2(0.9), newP2(0.99)
	for i := 0; i < 5_000; i++ {
		x := rng.float() * 1000
		p50.Observe(x)
		p90.Observe(x)
		p99.Observe(x)
	}
	if !(p50.Quantile() < p90.Quantile() && p90.Quantile() < p99.Quantile()) {
		t.Errorf("quantiles not monotone: p50=%v p90=%v p99=%v",
			p50.Quantile(), p90.Quantile(), p99.Quantile())
	}
}

func TestLatencySketch(t *testing.T) {
	l := newLatencySketch()
	for i := 1; i <= 100; i++ {
		l.observe(time.Duration(i) * time.Millisecond)
	}
	p50, p99 := l.quantiles()
	if p50 < 40 || p50 > 60 {
		t.Errorf("p50 = %v ms, want ~50", p50)
	}
	if p99 < 90 || p99 > 100 {
		t.Errorf("p99 = %v ms, want ~99", p99)
	}
}
