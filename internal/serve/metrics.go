package serve

import (
	"expvar"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tracecache"
)

// p2 estimates one quantile of a stream in O(1) memory using the P²
// algorithm (Jain & Chlamtac, CACM 1985): five markers track the minimum,
// the quantile and the maximum plus two midpoints, and each observation
// nudges the middle markers toward their desired positions with a parabolic
// (or, failing monotonicity, linear) height adjustment. Good to a few
// percent on smooth distributions — exactly what a latency p50/p99 gauge
// needs, with no allocation after construction.
//
// The zero value is not usable; call newP2. Not safe for concurrent use —
// latencySketch serializes access.
type p2 struct {
	p    float64    // target quantile in (0,1)
	n    int64      // observations so far
	pos  [5]float64 // actual marker positions (1-based)
	want [5]float64 // desired marker positions
	inc  [5]float64 // desired-position increments per observation
	q    [5]float64 // marker heights (the estimates)
}

// newP2 returns a sketch for the given quantile. Panics if p is not in
// (0, 1).
func newP2(p float64) *p2 {
	if p <= 0 || p >= 1 {
		panic("serve: p2 quantile must be in (0, 1)")
	}
	return &p2{
		p:    p,
		pos:  [5]float64{1, 2, 3, 4, 5},
		want: [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5},
		inc:  [5]float64{0, p / 2, p, (1 + p) / 2, 1},
	}
}

// Observe folds one sample into the sketch.
func (s *p2) Observe(x float64) {
	s.n++
	if s.n <= 5 {
		// Bootstrap: the first five samples become the markers, sorted.
		s.q[s.n-1] = x
		if s.n == 5 {
			sort.Float64s(s.q[:])
		}
		return
	}

	// Locate the cell containing x, extending the extremes when needed.
	var k int
	switch {
	case x < s.q[0]:
		s.q[0], k = x, 0
	case x >= s.q[4]:
		s.q[4], k = x, 3
	default:
		for k = 0; k < 3; k++ {
			if x < s.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		s.pos[i]++
	}
	for i := range s.want {
		s.want[i] += s.inc[i]
	}

	// Nudge the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := s.want[i] - s.pos[i]
		if (d >= 1 && s.pos[i+1]-s.pos[i] > 1) || (d <= -1 && s.pos[i-1]-s.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			if q := s.parabolic(i, sign); s.q[i-1] < q && q < s.q[i+1] {
				s.q[i] = q
			} else {
				s.q[i] = s.linear(i, sign)
			}
			s.pos[i] += sign
		}
	}
}

// parabolic is the P² piecewise-parabolic height prediction for moving
// marker i one position in direction d (±1).
func (s *p2) parabolic(i int, d float64) float64 {
	return s.q[i] + d/(s.pos[i+1]-s.pos[i-1])*
		((s.pos[i]-s.pos[i-1]+d)*(s.q[i+1]-s.q[i])/(s.pos[i+1]-s.pos[i])+
			(s.pos[i+1]-s.pos[i]-d)*(s.q[i]-s.q[i-1])/(s.pos[i]-s.pos[i-1]))
}

// linear is the fallback height prediction when the parabola overshoots a
// neighbouring marker.
func (s *p2) linear(i int, d float64) float64 {
	j := i + int(d)
	return s.q[i] + d*(s.q[j]-s.q[i])/(s.pos[j]-s.pos[i])
}

// Quantile returns the current estimate. With fewer than five observations
// it falls back to the exact order statistic of what has been seen; with
// none it returns 0.
func (s *p2) Quantile() float64 {
	if s.n == 0 {
		return 0
	}
	if s.n < 5 {
		tmp := make([]float64, s.n)
		copy(tmp, s.q[:s.n])
		sort.Float64s(tmp)
		idx := int(s.p * float64(s.n))
		if idx >= len(tmp) {
			idx = len(tmp) - 1
		}
		return tmp[idx]
	}
	return s.q[2]
}

// Count returns the number of observations folded in.
func (s *p2) Count() int64 { return s.n }

// latencySketch tracks job wall-clock latency quantiles.
type latencySketch struct {
	mu  sync.Mutex
	p50 *p2
	p99 *p2
}

func newLatencySketch() *latencySketch {
	return &latencySketch{p50: newP2(0.50), p99: newP2(0.99)}
}

func (l *latencySketch) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	l.mu.Lock()
	l.p50.Observe(ms)
	l.p99.Observe(ms)
	l.mu.Unlock()
}

func (l *latencySketch) quantiles() (p50, p99 float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.p50.Quantile(), l.p99.Quantile()
}

// lineUint64 is an atomic.Uint64 alone on its cache line: the blank tail
// keeps the next field off the line, so concurrent writers bumping
// different counters never ping-pong a shared line. Embedding keeps the
// atomic's method set on the field.
type lineUint64 struct {
	atomic.Uint64
	_ [56]byte
}

// lineInt64 is the signed variant, for gauges.
type lineInt64 struct {
	atomic.Int64
	_ [56]byte
}

// metrics is the server's counter block. Everything is atomic so hot
// handlers never contend on a stats mutex, and every counter owns its cache
// line so they do not false-share either.
type metrics struct {
	started   lineUint64 // jobs admitted and started
	completed lineUint64 // jobs that reached StateDone
	cancelled lineUint64 // client cancels + drain aborts
	failed    lineUint64 // deadline or internal failures
	rejected  lineUint64 // 429 responses (admission + saturation)
	evicted   lineUint64 // TTL/capacity table evictions
	cells     lineUint64 // simulation cells completed
	queued    lineInt64  // cells waiting on a simulation slot
	uploads   lineUint64 // trace-upload jobs accepted
	badUpload lineUint64 // uploads rejected as truncated/corrupt

	sessCreated lineUint64 // live sessions created
	sessClosed  lineUint64 // live sessions closed by the client
	sessEvicted lineUint64 // live sessions evicted (TTL or byte budget)
	predictRecs lineUint64 // records streamed through live predict calls
	stateSaves  lineUint64 // session state snapshot downloads
	stateLoads  lineUint64 // session warm-start snapshot uploads
	badState    lineUint64 // snapshot uploads rejected (corrupt/mismatch)

	latency        *latencySketch // job wall-clock, submit to terminal
	predictLatency *latencySketch // live predict requests, body to done
}

// Stats is the JSON shape of /statsz and the expvar surface.
type Stats struct {
	JobsStarted    uint64  `json:"jobs_started"`
	JobsCompleted  uint64  `json:"jobs_completed"`
	JobsCancelled  uint64  `json:"jobs_cancelled"`
	JobsFailed     uint64  `json:"jobs_failed"`
	Rejected       uint64  `json:"rejected"`
	Evicted        uint64  `json:"evicted"`
	Cells          uint64  `json:"cells"`
	QueueDepth     int64   `json:"queue_depth"`
	Uploads        uint64  `json:"uploads"`
	BadUploads     uint64  `json:"bad_uploads"`
	ActiveJobs     int     `json:"active_jobs"`
	TableJobs      int     `json:"table_jobs"`
	Draining       bool    `json:"draining"`
	LatencyP50MS   float64 `json:"latency_p50_ms"`
	LatencyP99MS   float64 `json:"latency_p99_ms"`
	LatencySamples int64   `json:"latency_samples"`
	// Live prediction sessions: table occupancy, the summed byte charge
	// (serialized predictor state + per-session overhead) against
	// Config.SessionBytes, traffic counters and predict-call latency.
	LiveSessions    int     `json:"live_sessions"`
	SessionBytes    int64   `json:"session_bytes"`
	SessionsCreated uint64  `json:"sessions_created"`
	SessionsClosed  uint64  `json:"sessions_closed"`
	SessionsEvicted uint64  `json:"sessions_evicted"`
	PredictRecords  uint64  `json:"predict_records"`
	StateSaves      uint64  `json:"state_saves"`
	StateLoads      uint64  `json:"state_loads"`
	BadState        uint64  `json:"bad_state"`
	PredictP50MS    float64 `json:"predict_p50_ms"`
	PredictP99MS    float64 `json:"predict_p99_ms"`
	// Cache re-exports the trace cache's own traffic counters.
	Cache tracecache.Stats `json:"tracecache"`
}

// Stats snapshots the server's counters, gauges and cache traffic.
func (s *Server) Stats() Stats {
	p50, p99 := s.met.latency.quantiles()
	s.met.latency.mu.Lock()
	samples := s.met.latency.p50.Count()
	s.met.latency.mu.Unlock()

	pp50, pp99 := s.met.predictLatency.quantiles()

	s.mu.Lock()
	table := len(s.jobs)
	active := 0
	for _, j := range s.jobs { //lint:sorted commutative count; iteration order cannot matter
		j.mu.Lock()
		if !j.terminalLocked() {
			active++
		}
		j.mu.Unlock()
	}
	liveSessions := len(s.sessions)
	sessBytes := s.sessBytes
	draining := s.draining
	s.mu.Unlock()

	return Stats{
		JobsStarted:    s.met.started.Load(),
		JobsCompleted:  s.met.completed.Load(),
		JobsCancelled:  s.met.cancelled.Load(),
		JobsFailed:     s.met.failed.Load(),
		Rejected:       s.met.rejected.Load(),
		Evicted:        s.met.evicted.Load(),
		Cells:          s.met.cells.Load(),
		QueueDepth:     s.met.queued.Load(),
		Uploads:        s.met.uploads.Load(),
		BadUploads:     s.met.badUpload.Load(),
		ActiveJobs:     active,
		TableJobs:      table,
		Draining:       draining,
		LatencyP50MS:   p50,
		LatencyP99MS:   p99,
		LatencySamples: samples,

		LiveSessions:    liveSessions,
		SessionBytes:    sessBytes,
		SessionsCreated: s.met.sessCreated.Load(),
		SessionsClosed:  s.met.sessClosed.Load(),
		SessionsEvicted: s.met.sessEvicted.Load(),
		PredictRecords:  s.met.predictRecs.Load(),
		StateSaves:      s.met.stateSaves.Load(),
		StateLoads:      s.met.stateLoads.Load(),
		BadState:        s.met.badState.Load(),
		PredictP50MS:    pp50,
		PredictP99MS:    pp99,

		Cache: s.cache.Stats(),
	}
}

// Vars wraps Stats as an expvar.Var so a caller can expvar.Publish it;
// publication is left to the binary (cmd/ppmserved) because the expvar
// registry is process-global and panics on duplicate names, which embedded
// and test servers must not risk.
func (s *Server) Vars() expvar.Var {
	return expvar.Func(func() any { return s.Stats() })
}
