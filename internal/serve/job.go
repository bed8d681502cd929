package serve

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"
)

// Job states, as reported by JobStatus.State and the NDJSON done event.
const (
	StateQueued    = "queued"    // admitted, no cell has started
	StateRunning   = "running"   // at least one cell started
	StateDone      = "done"      // every cell completed
	StateCancelled = "cancelled" // client cancel or shutdown drain timeout
	StateFailed    = "failed"    // deadline exceeded or internal error
)

// Cancellation causes, distinguished so the terminal state is honest about
// who killed the job.
var (
	errClientCancel = errors.New("serve: cancelled by client")
	errDrainAbort   = errors.New("serve: aborted by shutdown drain timeout")
	errJobDeadline  = errors.New("serve: job deadline exceeded")
)

// JobSpec is the JSON body of a suite-job submission. Zero-valued fields
// take server defaults: the full Table 1 suite, DefaultEvents events, the
// fig6 predictor line-up.
type JobSpec struct {
	// Suite names a predictor line-up: "fig6" (the seven 2K-entry
	// predictors of Figure 6) or "fig7" (the PPM variants). Mutually
	// exclusive with Predictors.
	Suite string `json:"suite,omitempty"`
	// Predictors lists predictor labels (see bench.PredictorNames) as an
	// alternative to a named suite.
	Predictors []string `json:"predictors,omitempty"`
	// Workloads lists benchmark runs by Config.String() name
	// ("troff.ped"); empty means the full suite.
	Workloads []string `json:"workloads,omitempty"`
	// Events is the MT dispatch count per run; 0 means the server default.
	Events int `json:"events,omitempty"`
}

// JobStatus is the poll/submit response body.
type JobStatus struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"` // "suite" or "upload"
	State string `json:"state"`
	Cells int    `json:"cells"`
	Done  int    `json:"done"`
	Error string `json:"error,omitempty"`
}

// PredictorResult is one predictor's counters on one cell. Only raw counts
// travel on the wire — ratios are derived at render time, exactly as the
// experiment harness derives them, so a served matrix is byte-identical to
// a local one.
type PredictorResult struct {
	Name         string `json:"name"`
	Lookups      uint64 `json:"lookups"`
	Correct      uint64 `json:"correct"`
	Wrong        uint64 `json:"wrong"`
	NoPrediction uint64 `json:"nopred"`
}

// CellResult is the outcome of one (run × predictor-suite) simulation cell.
type CellResult struct {
	Index      int               `json:"index"`
	Run        string            `json:"run"`
	Records    uint64            `json:"records"`
	Predictors []PredictorResult `json:"predictors"`
}

// Event is one NDJSON line of a results stream: a completed cell, or the
// terminal line carrying the job's final state.
type Event struct {
	Type  string      `json:"type"` // "cell" or "done"
	Job   string      `json:"job"`
	State string      `json:"state,omitempty"`
	Cell  *CellResult `json:"cell,omitempty"`
	Error string      `json:"error,omitempty"`
}

// job is one session in the table. Cells append in completion order (each
// carries its suite index); streams replay the log from any offset and wait
// on updated for more, so a results request can attach before, during or
// after the run.
type job struct {
	id      string
	kind    string
	created time.Time

	ctx     context.Context
	cancel  context.CancelCauseFunc
	release context.CancelFunc // frees the deadline timer once terminal

	mu       sync.Mutex
	state    string
	cells    []CellResult
	total    int
	errMsg   string
	finished time.Time
	updated  chan struct{} // closed and replaced on every mutation
}

func newJob(id, kind string, total int, created time.Time, timeout time.Duration) *job {
	// The deadline carries an explicit cause: context.Cause must name the
	// job timeout, not the generic DeadlineExceeded any wrapping deadline
	// would also produce. Job contexts are roots: a job outlives the request
	// that submitted it.
	base, release := context.WithTimeoutCause(context.Background(), timeout, errJobDeadline)
	ctx, cancel := context.WithCancelCause(base)
	return &job{
		id: id, kind: kind, created: created,
		ctx: ctx, cancel: cancel, release: release,
		state: StateQueued, total: total,
		updated: make(chan struct{}),
	}
}

// bump wakes every waiting stream. Callers hold j.mu.
func (j *job) bump() {
	close(j.updated)
	j.updated = make(chan struct{})
}

func (j *job) setRunning() {
	j.mu.Lock()
	if j.state == StateQueued {
		j.state = StateRunning
		j.bump()
	}
	j.mu.Unlock()
}

func (j *job) appendCell(c CellResult) {
	j.mu.Lock()
	j.cells = append(j.cells, c)
	j.bump()
	j.mu.Unlock()
}

// finish moves the job to a terminal state exactly once and returns whether
// this call was the transition.
func (j *job) finish(state, errMsg string, at time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.terminalLocked() {
		return false
	}
	j.state, j.errMsg, j.finished = state, errMsg, at
	j.bump()
	j.release() // the deadline timer has no further say
	return true
}

func (j *job) terminalLocked() bool {
	return j.state == StateDone || j.state == StateCancelled || j.state == StateFailed
}

// snapshot returns the cells at or past offset from, the current state, and
// a channel that is closed on the next mutation. The returned slice aliases
// the log; results are append-only so readers may iterate it freely.
func (j *job) snapshot(from int) (cells []CellResult, state, errMsg string, terminal bool, updated <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < len(j.cells) {
		cells = j.cells[from:]
	}
	return cells, j.state, j.errMsg, j.terminalLocked(), j.updated
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID: j.id, Kind: j.kind, State: j.state,
		Cells: j.total, Done: len(j.cells), Error: j.errMsg,
	}
}

// expired reports whether the job is terminal and past its retention TTL.
func (j *job) expired(now time.Time, ttl time.Duration) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.terminalLocked() && now.Sub(j.finished) >= ttl
}

// terminalState maps the job context's demise to a (state, message) pair.
func terminalState(ctx context.Context) (string, string) {
	switch cause := context.Cause(ctx); {
	case cause == nil || ctx.Err() == nil:
		return StateDone, ""
	case errors.Is(cause, errClientCancel):
		return StateCancelled, ""
	case errors.Is(cause, errDrainAbort):
		return StateCancelled, "shutdown drain timeout"
	case errors.Is(cause, errJobDeadline), errors.Is(cause, context.DeadlineExceeded):
		return StateFailed, "job deadline exceeded"
	default:
		return StateFailed, cause.Error()
	}
}

// evictExpired drops terminal jobs past their TTL and, when makeRoom is set
// and the table is still at capacity, the oldest-finished terminal jobs
// until one slot frees up. Running jobs are never evicted. Callers hold
// s.mu.
func (s *Server) evictExpiredLocked(now time.Time, makeRoom bool) {
	var finished []*job
	for id, j := range s.jobs { //lint:sorted set deletion + sorted below; iteration order cannot matter
		if j.expired(now, s.cfg.JobTTL) {
			delete(s.jobs, id)
			s.met.evicted.Add(1)
			continue
		}
		j.mu.Lock()
		if j.terminalLocked() {
			finished = append(finished, j)
		}
		j.mu.Unlock()
	}
	if !makeRoom || len(s.jobs) < s.cfg.MaxJobs {
		return
	}
	sort.Slice(finished, func(a, b int) bool { return finished[a].finished.Before(finished[b].finished) })
	for _, j := range finished {
		if len(s.jobs) < s.cfg.MaxJobs {
			return
		}
		delete(s.jobs, j.id)
		s.met.evicted.Add(1)
	}
}
