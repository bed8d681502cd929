// Package serve turns the batch simulator into a long-running prediction-
// simulation service. A Server accepts simulation jobs over HTTP — either a
// named set of internal/workload configs materialized through the shared
// internal/tracecache, or an uploaded IBT2 trace decoded incrementally (the
// body is never fully buffered) — runs each (run × predictor-suite) cell
// through internal/sched's worker pool behind a global concurrency
// semaphore, and streams per-cell accuracy counters back as NDJSON.
//
// The package owns the serving concerns the simulator core must never learn
// about: a bounded session table with TTL eviction, admission control and
// backpressure (429 + Retry-After when saturated — the server sheds load,
// it never queues unboundedly), per-job deadlines, graceful shutdown that
// drains in-flight jobs under a bounded timeout, /healthz and /readyz, and
// an expvar-able stats surface with streaming p50/p99 job-latency
// quantiles (metrics.go).
//
// Determinism contract: serving machinery reads the wall clock (TTLs,
// latency metrics, Retry-After), but simulation cells run on private
// sim.Engines over immutable cached traces, so the counters streamed for a
// given (workload config, suite, events) are byte-identical to a serial
// cmd/experiments run of the same cells — a property CI pins.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/predictor"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/state"
	"repro/internal/trace"
	"repro/internal/tracecache"
	"repro/internal/workload"
)

// now is the single wall-clock read point of the package. Serving metadata
// (job TTLs, latency quantiles, eviction order) is wall-clock by nature and
// never feeds simulation results, which stay bit-deterministic.
func now() time.Time {
	return time.Now() //lint:wallclock serving metadata only; simulation results never see the clock
}

// Config tunes a Server. The zero value of any field selects the default
// noted on it.
type Config struct {
	// MaxConcurrent bounds simulation cells running at once across every
	// job (the backpressure semaphore) and is the sched.Pool width each job
	// shards its cells over. Default GOMAXPROCS.
	MaxConcurrent int
	// MaxActive bounds admitted-but-unfinished jobs; submissions beyond it
	// are shed with 429. Default 8.
	MaxActive int
	// MaxJobs bounds the whole session table, finished jobs included.
	// Default 64.
	MaxJobs int
	// JobTTL is how long a finished job (and its buffered results) stays
	// pollable before eviction. Default 10m.
	JobTTL time.Duration
	// JobTimeout is the per-job deadline. Default 5m.
	JobTimeout time.Duration
	// RetryAfter is the advisory Retry-After on 429 responses. Default 1s.
	RetryAfter time.Duration
	// CacheBytes is the trace cache budget. Default 512 MiB.
	CacheBytes int64
	// MaxEvents caps per-run dispatch events on submitted specs. Default
	// 2_000_000.
	MaxEvents int
	// MaxUploadBytes caps an uploaded trace body. Default 256 MiB.
	MaxUploadBytes int64
	// MaxSessions bounds live prediction sessions in the table. Default
	// 4096.
	MaxSessions int
	// SessionBytes bounds the summed live predictor state across every
	// session — each charged its serialized size (state.SizeOf) plus a
	// fixed overhead — so session count cannot grow RSS past the budget.
	// Default 256 MiB.
	SessionBytes int64
	// SessionTTL is how long an idle live session survives between
	// requests before eviction. Default 10m.
	SessionTTL time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxActive <= 0 {
		c.MaxActive = 8
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 64
	}
	if c.JobTTL <= 0 {
		c.JobTTL = 10 * time.Minute
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 512 << 20
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = 2_000_000
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 256 << 20
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 4096
	}
	if c.SessionBytes <= 0 {
		c.SessionBytes = 256 << 20
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 10 * time.Minute
	}
	return c
}

// Server is the prediction-simulation service. Create with New; it is safe
// for concurrent use and owns a TTL-eviction goroutine until Shutdown.
type Server struct {
	cfg   Config
	cache *tracecache.Cache
	pool  *sched.Pool
	mux   *http.ServeMux
	sem   chan struct{} // simulation-slot semaphore

	mu       sync.Mutex
	jobs     map[string]*job
	nextID   int
	draining bool
	// sessions is the live-session table; sessBytes is the summed byte
	// charge of every session in it (state size + fixed overhead), held
	// under Config.SessionBytes by admission and eviction.
	sessions  map[string]*session
	nextSID   int
	sessBytes int64

	// spool pools snapshot writers/readers for the session state endpoints,
	// keeping the steady-state snapshot/restore cycle allocation-free.
	spool *state.Pool

	jobsWG      sync.WaitGroup // one per admitted job, suite or upload
	janitorStop chan struct{}
	met         metrics

	// cellHook, when non-nil, runs at the start of every suite cell while
	// it holds a simulation slot. Test seam: lets tests park cells to
	// exercise saturation, deadlines and drains deterministically.
	cellHook func(j *job, cell int)
}

// New builds a Server and starts its TTL janitor. Call Shutdown to stop it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		cache:       tracecache.New(cfg.CacheBytes),
		pool:        sched.New(cfg.MaxConcurrent),
		sem:         make(chan struct{}, cfg.MaxConcurrent),
		jobs:        make(map[string]*job),
		sessions:    make(map[string]*session),
		spool:       state.NewPool(),
		janitorStop: make(chan struct{}),
	}
	s.met.latency = newLatencySketch()
	s.met.predictLatency = newLatencySketch()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleResults)
	s.mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	s.mux.HandleFunc("GET /v1/sessions", s.handleSessionList)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionStatus)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionClose)
	s.mux.HandleFunc("POST /v1/sessions/{id}/predict", s.handleSessionPredict)
	s.mux.HandleFunc("GET /v1/sessions/{id}/state", s.handleStateGet)
	s.mux.HandleFunc("PUT /v1/sessions/{id}/state", s.handleStatePut)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	go s.janitor()
	return s
}

// Handler returns the server's HTTP mux, for mounting on an http.Server or
// an httptest server.
func (s *Server) Handler() http.Handler { return s.mux }

// janitor evicts expired jobs and idle live sessions in the background so an
// idle server's tables drain to empty without waiting for the next request.
func (s *Server) janitor() {
	ttl := s.cfg.JobTTL
	if s.cfg.SessionTTL < ttl {
		ttl = s.cfg.SessionTTL
	}
	interval := ttl / 4
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-t.C:
			s.mu.Lock()
			tick := now()
			s.evictExpiredLocked(tick, false)
			s.evictSessionsLocked(tick, false, 0)
			s.mu.Unlock()
		}
	}
}

// Shutdown drains the server: new submissions are rejected and /readyz
// flips to 503 immediately, in-flight jobs (and their result streams) run
// to completion, and when ctx expires first the remaining jobs are
// cancelled with a "shutdown drain timeout" cause and awaited. The janitor
// stops either way. Returns ctx.Err() when the drain timed out, nil when
// every job finished inside the deadline.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	alreadyDraining := s.draining
	s.draining = true
	s.mu.Unlock()
	if !alreadyDraining {
		defer close(s.janitorStop)
	}

	done := make(chan struct{})
	go func() {
		s.jobsWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}

	// Bounded drain expired: abort what is left. Cells observe the context
	// between chunks, so this converges quickly.
	s.mu.Lock()
	for _, j := range s.jobs { //lint:sorted commutative cancellation; iteration order cannot matter
		j.cancel(errDrainAbort)
	}
	s.mu.Unlock()
	<-done
	return ctx.Err()
}

// --- admission -------------------------------------------------------------

// admit reserves a session slot, enforcing the active-job and table bounds.
// It returns the new job, or a nil job and an HTTP status + message to shed
// the request with.
func (s *Server) admit(kind string, totalCells int) (*job, int, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, http.StatusServiceUnavailable, "server is draining"
	}
	t := now()
	s.evictExpiredLocked(t, true)
	if len(s.jobs) >= s.cfg.MaxJobs {
		return nil, http.StatusTooManyRequests, "session table full"
	}
	active := 0
	for _, j := range s.jobs { //lint:sorted commutative count; iteration order cannot matter
		j.mu.Lock()
		if !j.terminalLocked() {
			active++
		}
		j.mu.Unlock()
	}
	if active >= s.cfg.MaxActive {
		return nil, http.StatusTooManyRequests, "too many active jobs"
	}
	s.nextID++
	j := newJob(fmt.Sprintf("j-%d", s.nextID), kind, totalCells, t, s.cfg.JobTimeout)
	s.jobs[j.id] = j
	s.jobsWG.Add(1)
	s.met.started.Add(1)
	return j, 0, ""
}

// lookup finds a session by id.
func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// resolveSuite maps a JobSpec's predictor selection to a builder. The
// builder runs once per cell, so every cell trains fresh instances.
func resolveSuite(spec JobSpec) (func() []predictor.IndirectPredictor, error) {
	if spec.Suite != "" && len(spec.Predictors) > 0 {
		return nil, errors.New("suite and predictors are mutually exclusive")
	}
	names, ok := bench.Lineup(spec.Suite)
	if len(spec.Predictors) > 0 {
		if _, err := bench.Predictors(spec.Predictors); err != nil {
			return nil, err
		}
		names = spec.Predictors
	} else if !ok {
		return nil, fmt.Errorf("unknown suite %q (want fig6, fig7, or explicit predictors)", spec.Suite)
	}
	return func() []predictor.IndirectPredictor {
		preds, _ := bench.Predictors(names)
		return preds
	}, nil
}

// resolveWorkloads maps a JobSpec's run selection to concrete configs at
// the requested event count.
func (s *Server) resolveWorkloads(spec JobSpec) ([]workload.Config, error) {
	events := spec.Events
	if events <= 0 {
		events = bench.DefaultEvents
	}
	if events > s.cfg.MaxEvents {
		return nil, fmt.Errorf("events %d exceeds the server cap %d", events, s.cfg.MaxEvents)
	}
	if len(spec.Workloads) == 0 {
		return bench.Sized(events), nil
	}
	cfgs := make([]workload.Config, len(spec.Workloads))
	for i, name := range spec.Workloads {
		cfg, ok := bench.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		cfg.Events = events
		cfgs[i] = cfg
	}
	return cfgs, nil
}

// --- handlers --------------------------------------------------------------

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if isTraceUpload(r) {
		s.handleUpload(w, r)
		return
	}
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad job spec: "+err.Error())
		return
	}
	build, err := resolveSuite(spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	cfgs, err := s.resolveWorkloads(spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	j, code, msg := s.admit("suite", len(cfgs))
	if j == nil {
		s.shed(w, code, msg)
		return
	}
	go s.runJob(j, cfgs, build)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, j.status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	statuses := make([]JobStatus, 0, len(s.jobs))
	for _, j := range s.jobs { //lint:sorted sorted by ID below
		statuses = append(statuses, j.status())
	}
	s.mu.Unlock()
	sort.Slice(statuses, func(a, b int) bool { return statuses[a].ID < statuses[b].ID })
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, statuses)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, j.status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	j.cancel(errClientCancel)
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, j.status())
}

// handleResults streams the job's cell log as NDJSON: every already-
// completed cell immediately, then cells as they land, then one terminal
// "done" event. Reconnecting after completion replays the full log from the
// session table (until TTL eviction).
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Job-ID", j.id)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	sent := 0
	for {
		cells, state, errMsg, terminal, updated := j.snapshot(sent)
		for i := range cells {
			c := cells[i]
			if err := enc.Encode(Event{Type: "cell", Job: j.id, Cell: &c}); err != nil {
				return // client went away
			}
			sent++
		}
		if terminal {
			_ = enc.Encode(Event{Type: "done", Job: j.id, State: state, Error: errMsg})
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-updated:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, "ok\n")
}

// handleReadyz reports whether the server accepts new jobs: 503 once
// draining so load balancers stop routing here ahead of the listener
// closing.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, "ready\n")
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, s.Stats())
}

// shed rejects a request under backpressure, attaching Retry-After so
// well-behaved clients pace themselves instead of hammering.
func (s *Server) shed(w http.ResponseWriter, code int, msg string) {
	if code == http.StatusTooManyRequests {
		s.met.rejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
	}
	httpError(w, code, msg)
}

// retryAfterSeconds converts the configured backoff into the whole seconds
// the Retry-After header carries, rounding up. The floor is 1: the header's
// grammar has no sub-second resolution, and advertising "Retry-After: 0"
// would invite an immediate retry — the opposite of backpressure — so a
// sub-second or unset duration still asks for one second.
func retryAfterSeconds(d time.Duration) int {
	if d <= 0 {
		return 1
	}
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		return 1
	}
	return secs
}

// --- job execution ---------------------------------------------------------

// runJob executes a suite job: cells shard across the pool, each taking a
// global simulation slot first, so total in-flight simulation work respects
// MaxConcurrent no matter how many jobs are admitted.
func (s *Server) runJob(j *job, cfgs []workload.Config, build func() []predictor.IndirectPredictor) {
	defer s.jobsWG.Done()
	j.setRunning()
	s.pool.Map(len(cfgs), func(i int) {
		if j.ctx.Err() != nil {
			return
		}
		s.met.queued.Add(1)
		select {
		case s.sem <- struct{}{}:
			s.met.queued.Add(-1)
		case <-j.ctx.Done():
			s.met.queued.Add(-1)
			return
		}
		defer func() { <-s.sem }()
		if h := s.cellHook; h != nil {
			h(j, i)
		}
		if j.ctx.Err() != nil {
			return
		}
		blks, _ := s.cache.GetBlocks(cfgs[i])
		e := sim.New(build()...)
		// Checking the job context between blocks lets cancellation and
		// drain timeouts take effect mid-cell within a block's work.
		for k := range blks {
			if j.ctx.Err() != nil {
				return
			}
			e.ProcessBlock(&blks[k])
		}
		if j.ctx.Err() != nil {
			return
		}
		j.appendCell(cellResult(i, cfgs[i].String(), e))
		s.met.cells.Add(1)
	})
	s.finishJob(j)
}

// finishJob records the terminal state and latency of a job.
func (s *Server) finishJob(j *job) {
	state, msg := terminalState(j.ctx)
	t := now()
	if !j.finish(state, msg, t) {
		return
	}
	switch state {
	case StateDone:
		s.met.completed.Add(1)
	case StateCancelled:
		s.met.cancelled.Add(1)
	default:
		s.met.failed.Add(1)
	}
	s.met.latency.observe(t.Sub(j.created))
}

// cellResult captures one finished cell's counters.
func cellResult(index int, run string, e *sim.Engine) CellResult {
	counters := e.Counters()
	preds := make([]PredictorResult, len(counters))
	for i, c := range counters {
		preds[i] = PredictorResult{
			Name: c.Predictor, Lookups: c.Lookups,
			Correct: c.Correct, Wrong: c.Wrong, NoPrediction: c.NoPrediction,
		}
	}
	return CellResult{Index: index, Run: run, Records: e.Records(), Predictors: preds}
}

// --- trace upload ----------------------------------------------------------

// isTraceUpload distinguishes a streamed IBT2 body from a JSON job spec.
func isTraceUpload(r *http.Request) bool {
	switch ct := r.Header.Get("Content-Type"); ct {
	case "application/x-ibt2", "application/octet-stream":
		return true
	default:
		return false
	}
}

// handleUpload simulates an uploaded trace against a predictor suite while
// the body streams in: sim.Engine.ProcessReader decodes it into a small
// ring of blocks on this goroutine while each predictor replays the ring on
// its own, so a multi-gigabyte trace costs constant memory. The simulation
// slot is try-acquired — a saturated server sheds the upload with 429
// before reading the body.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	spec := JobSpec{
		Suite:      r.URL.Query().Get("suite"),
		Predictors: r.URL.Query()["predictor"],
	}
	build, err := resolveSuite(spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	label := r.URL.Query().Get("label")
	if label == "" {
		label = "upload"
	}

	// Try-acquire the simulation slot before creating any session state: a
	// saturated server sheds the upload without reading a byte of body.
	select {
	case s.sem <- struct{}{}:
	default:
		s.shed(w, http.StatusTooManyRequests, "simulation slots saturated")
		return
	}
	defer func() { <-s.sem }()

	j, code, msg := s.admit("upload", 1)
	if j == nil {
		s.shed(w, code, msg)
		return
	}
	defer s.jobsWG.Done()
	defer s.finishJob(j)
	j.setRunning()
	s.met.uploads.Add(1)

	tr := traceReaders.Get().(*trace.Reader)
	defer releaseReader(tr)
	if err := tr.Reset(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)); err != nil {
		s.met.badUpload.Add(1)
		j.cancel(err)
		httpError(w, http.StatusBadRequest, "not an IBT2 trace: "+err.Error())
		return
	}
	e := sim.New(build()...)
	// The job context is the one the stream watches: a vanished client
	// cancels it like DELETE, the job deadline and the drain abort do.
	stop := context.AfterFunc(r.Context(), func() { j.cancel(errRequestGone) })
	err = streamTrace(j.ctx, e, tr)
	stop()
	switch {
	case err == nil:
		j.appendCell(cellResult(0, label, e))
		s.met.cells.Add(1)
	case j.ctx.Err() != nil && !errors.Is(context.Cause(j.ctx), errRequestGone):
		// Cancelled, past its deadline or drain-aborted: no cell, and the
		// done line below says which.
	default:
		code := http.StatusBadRequest // truncation, corruption, vanished client
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			code = http.StatusRequestEntityTooLarge
		}
		s.met.badUpload.Add(1)
		j.cancel(err)
		httpError(w, code, err.Error())
		return
	}
	s.finishJob(j)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Job-ID", j.id)
	enc := json.NewEncoder(w)
	cells, state, errMsg, _, _ := j.snapshot(0)
	for i := range cells {
		_ = enc.Encode(Event{Type: "cell", Job: j.id, Cell: &cells[i]})
	}
	_ = enc.Encode(Event{Type: "done", Job: j.id, State: state, Error: errMsg})
}

var errRequestGone = errors.New("serve: request context cancelled mid-upload")

// streamTrace runs the upload through the engine, which checks ctx — the
// job's context — before every decoded block, and surfaces truncation as
// trace.ErrTruncated naming the whole records before it (a client error,
// 400).
func streamTrace(ctx context.Context, e *sim.Engine, tr *trace.Reader) error {
	err := e.ProcessReader(ctx, tr)
	if errors.Is(err, trace.ErrTruncated) {
		return fmt.Errorf("upload truncated after %d records: %w", tr.Count(), err)
	}
	return err
}

// traceReaders recycles IBT2 decoders, and with them their 64 KiB byte
// windows, across uploads and live predict requests.
var traceReaders = sync.Pool{New: func() any { return new(trace.Reader) }}

// releaseReader returns a reader to traceReaders. Resetting it onto an
// empty body first drops its reference to the finished request's body, so
// the pool pins no request; the header error that Reset reports for the
// empty body is expected.
func releaseReader(tr *trace.Reader) {
	_ = tr.Reset(http.NoBody)
	traceReaders.Put(tr)
}

// --- plumbing --------------------------------------------------------------

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	writeJSON(w, map[string]string{"error": msg})
}

func writeJSON(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
