package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
	"unsafe"

	"repro/internal/bench"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/state"
	"repro/internal/trace"
)

// Live prediction sessions: where a job replays a whole trace offline, a
// session holds one predictor's mutable state open across requests. Clients
// stream IBT2 records up and get the predictor's per-dispatch predictions
// back as NDJSON while the tables train in place — the paper's online
// learner, served. Session state is the product being stored, so the table
// is bounded in bytes, not just entries: every session is charged its
// serialized predictor size (state.SizeOf) plus a fixed overhead, and the
// longest-idle sessions are evicted when the budget or the table fills.

// sessionBlockCap is the record capacity of the pooled block a predict
// request decodes its body into, and so the bound on a session engine's
// prediction lane: one predictor.Prediction per record of a block.
const sessionBlockCap = 512

// sessionOverheadBytes is the fixed per-session charge on top of the
// serialized predictor state: 2 KiB for the session struct, table slot,
// engine and counter scaffolding — a coarse figure, the serialized state
// dominates for any trained predictor — plus the engine's prediction lane
// at its bound, which it keeps between requests.
const sessionOverheadBytes = 2048 + sessionBlockCap*int64(unsafe.Sizeof(predictor.Prediction{}))

// SessionSpec is the JSON body of POST /v1/sessions. An empty body selects
// the default predictor.
type SessionSpec struct {
	// Predictor is a bench family label (see bench.PredictorNames);
	// empty means "PPM-hyb", the paper's headline predictor.
	Predictor string `json:"predictor,omitempty"`
}

// SessionStatus is the JSON shape of a live session: identity, cumulative
// accuracy counters, and the bytes its state is currently charged against
// the server's session memory budget.
type SessionStatus struct {
	ID           string `json:"id"`
	Predictor    string `json:"predictor"`
	Records      uint64 `json:"records"`
	Lookups      uint64 `json:"lookups"`
	Correct      uint64 `json:"correct"`
	Wrong        uint64 `json:"wrong"`
	NoPrediction uint64 `json:"nopred"`
	StateBytes   int64  `json:"state_bytes"`
}

// PredictEvent is one NDJSON line of a live predict stream: a "pred" line
// per MT indirect dispatch in upload order, then a terminal "done" line
// carrying the session's cumulative status. An "error" line replaces "done"
// when the upload was truncated or corrupt; records decoded before the error
// have already trained the session.
type PredictEvent struct {
	Type      string         `json:"type"` // "pred", "done" or "error"
	Seq       uint64         `json:"seq,omitempty"`
	PC        uint64         `json:"pc,omitempty"`
	Target    uint64         `json:"target,omitempty"` // predicted target (when predicted)
	Actual    uint64         `json:"actual,omitempty"` // committed target
	Predicted bool           `json:"predicted"`
	Correct   bool           `json:"correct"`
	Session   *SessionStatus `json:"session,omitempty"`
	Error     string         `json:"error,omitempty"`
}

// session is one live predictor in the table. The engine is single-owner:
// a request claims it via acquire (busy) and every other predict/state
// request is shed with 409 until release. stat is the last published status,
// readable without touching the engine, so GET status/list never block on a
// busy session.
type session struct {
	id        string
	predictor string
	created   time.Time

	// bytes is the session's current charge against Config.SessionBytes
	// (sessionOverheadBytes + serialized state size). Guarded by Server.mu,
	// like the table itself.
	bytes int64

	mu       sync.Mutex
	busy     bool
	lastUsed time.Time
	stat     SessionStatus

	// eng is only touched by the request holding the busy claim (or by
	// createSession before the session is published).
	eng *sim.Engine
}

// acquire claims exclusive use of the session's engine for one request.
func (sess *session) acquire(t time.Time) bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.busy {
		return false
	}
	sess.busy = true
	sess.lastUsed = t
	return true
}

// liveStatus reads the engine's counters into a status. Callers must hold
// the busy claim (or be creating the session), so the engine is quiescent.
func (sess *session) liveStatus(stateBytes int64) SessionStatus {
	c := sess.eng.Counters()[0]
	return SessionStatus{
		ID: sess.id, Predictor: sess.predictor,
		Records: sess.eng.Records(),
		Lookups: c.Lookups, Correct: c.Correct, Wrong: c.Wrong, NoPrediction: c.NoPrediction,
		StateBytes: stateBytes,
	}
}

// status returns the last published status without touching the engine.
func (sess *session) status() SessionStatus {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.stat
}

// idleSince reports the busy flag and last use for eviction decisions.
func (sess *session) idleSince() (busy bool, last time.Time) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.busy, sess.lastUsed
}

// releaseSession publishes the session's post-request status, re-charges its
// state size against the byte budget (sizeBytes < 0 recomputes it from the
// live state), and returns the busy claim. Growth beyond the budget evicts
// the longest-idle sessions immediately, not at the next admission.
func (s *Server) releaseSession(sess *session, sizeBytes int64) {
	if sizeBytes < 0 {
		sizeBytes = sessionOverheadBytes + int64(state.SizeOf(sess.eng))
	}
	st := sess.liveStatus(sizeBytes)
	t := now()
	s.mu.Lock()
	if cur, ok := s.sessions[sess.id]; ok && cur == sess {
		s.sessBytes += sizeBytes - sess.bytes
		sess.bytes = sizeBytes
		s.evictSessionsLocked(t, true, 0)
	}
	s.mu.Unlock()
	sess.mu.Lock()
	sess.stat = st
	sess.lastUsed = t
	sess.busy = false
	sess.mu.Unlock()
}

// lookupSession finds a live session by id.
func (s *Server) lookupSession(id string) (*session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	return sess, ok
}

// dropSessionLocked removes a session from the table and returns its byte
// charge to the budget. Callers hold s.mu and bump their own metric.
func (s *Server) dropSessionLocked(sess *session) {
	delete(s.sessions, sess.id)
	s.sessBytes -= sess.bytes
}

// evictSessionsLocked drops idle sessions past SessionTTL and, when makeRoom
// is set, the longest-idle sessions until a table slot is free and needBytes
// fits under SessionBytes. Sessions with a request in flight (busy) are
// never evicted — their charge is what admission control sheds against.
// Callers hold s.mu.
func (s *Server) evictSessionsLocked(t time.Time, makeRoom bool, needBytes int64) {
	type idleSess struct {
		sess *session
		last time.Time
	}
	var idle []idleSess
	for _, sess := range s.sessions { //lint:sorted set deletion + sorted below; iteration order cannot matter
		busy, last := sess.idleSince()
		if busy {
			continue
		}
		if t.Sub(last) >= s.cfg.SessionTTL {
			s.dropSessionLocked(sess)
			s.met.sessEvicted.Add(1)
			continue
		}
		idle = append(idle, idleSess{sess, last})
	}
	if !makeRoom {
		return
	}
	sort.Slice(idle, func(a, b int) bool { return idle[a].last.Before(idle[b].last) })
	for _, it := range idle {
		if len(s.sessions) < s.cfg.MaxSessions && s.sessBytes+needBytes <= s.cfg.SessionBytes {
			return
		}
		s.dropSessionLocked(it.sess)
		s.met.sessEvicted.Add(1)
	}
}

// --- session handlers -------------------------------------------------------

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var spec SessionSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil && err != io.EOF {
		httpError(w, http.StatusBadRequest, "bad session spec: "+err.Error())
		return
	}
	name := spec.Predictor
	if name == "" {
		name = "PPM-hyb"
	}
	p, ok := bench.NewPredictor(name)
	if !ok {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown predictor %q", name))
		return
	}
	eng := sim.New(p)
	charge := sessionOverheadBytes + int64(state.SizeOf(eng))

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.shed(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	t := now()
	s.evictSessionsLocked(t, true, charge)
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		s.shed(w, http.StatusTooManyRequests, "session table full")
		return
	}
	if s.sessBytes+charge > s.cfg.SessionBytes {
		s.mu.Unlock()
		s.shed(w, http.StatusTooManyRequests, "session memory budget exhausted")
		return
	}
	s.nextSID++
	sess := &session{
		id: fmt.Sprintf("s-%d", s.nextSID), predictor: name,
		created: t, lastUsed: t, bytes: charge, eng: eng,
	}
	sess.stat = sess.liveStatus(charge)
	s.sessions[sess.id] = sess
	s.sessBytes += charge
	st := sess.stat
	s.mu.Unlock()
	s.met.sessCreated.Add(1)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, st)
}

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	statuses := make([]SessionStatus, 0, len(s.sessions))
	for _, sess := range s.sessions { //lint:sorted sorted by ID below
		statuses = append(statuses, sess.status())
	}
	s.mu.Unlock()
	sort.Slice(statuses, func(a, b int) bool { return statuses[a].ID < statuses[b].ID })
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, statuses)
}

func (s *Server) handleSessionStatus(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such session")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, sess.status())
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if ok {
		s.dropSessionLocked(sess)
	}
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no such session")
		return
	}
	s.met.sessClosed.Add(1)
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, sess.status())
}

// handleSessionPredict streams an IBT2 body through the session's live
// engine: each decoded record trains the predictor in place, and each MT
// indirect dispatch emits one NDJSON prediction line. The stream ends with a
// "done" event carrying the cumulative status. State mutates as records
// decode, so a truncated upload keeps the prefix's training — exactly what
// an online learner does with a dropped connection.
//
// The body decodes block by block, through a pooled trace.Reader into a
// pooled block; the engine replays each block and its prediction lane
// becomes the block's pred lines, appended into a pooled buffer that
// reaches the ResponseWriter every predFlushBytes. ReadBlock hands back
// what the window holds rather than wait for a full block, so predictions
// keep flowing while the body uploads, and a warm request's work is its
// simulation.
func (s *Server) handleSessionPredict(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such session")
		return
	}
	if !sess.acquire(now()) {
		httpError(w, http.StatusConflict, "session busy")
		return
	}
	sizeBytes := int64(-1) // recompute on the error paths
	defer func() { s.releaseSession(sess, sizeBytes) }()

	tr := traceReaders.Get().(*trace.Reader)
	defer releaseReader(tr)
	if err := tr.Reset(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)); err != nil {
		s.met.badUpload.Add(1)
		httpError(w, http.StatusBadRequest, "not an IBT2 trace: "+err.Error())
		return
	}

	// Predictions stream back while the body is still uploading, so the
	// connection must be full duplex: the HTTP/1.x server otherwise closes
	// the request body at the first response write. HTTP/2 is duplex
	// natively, so a not-supported error is fine to ignore.
	_ = http.NewResponseController(w).EnableFullDuplex()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Session-ID", sess.id)
	lines := predLines.Get().(*[]byte)
	out := (*lines)[:0]
	defer func() {
		*lines = out[:0]
		predLines.Put(lines)
	}()
	blk := sessionBlocks.Get().(*trace.Block)
	defer sessionBlocks.Put(blk)
	// Every decoded record has trained the session, whichever way the
	// request ends.
	defer func() { s.met.predictRecs.Add(tr.Count()) }()
	t0 := now()
	for {
		if r.Context().Err() != nil {
			return // client gone; the prefix has already trained the session
		}
		err := tr.ReadBlock(blk)
		if err == io.EOF {
			break
		}
		// On a decode error blk holds the records before it, which train
		// the session and get their pred lines like any others.
		seq := sess.eng.Counters()[0].Lookups
		sess.eng.ProcessBlock(blk)
		var werr error
		if out, werr = appendPreds(w, out, blk, sess.eng.Predictions(0), seq); werr != nil {
			return // client went away
		}
		if err != nil {
			// Headers are long gone; surface the failure as a typed line.
			s.met.badUpload.Add(1)
			if _, werr := w.Write(out); werr == nil {
				writeJSON(w, PredictEvent{Type: "error", Error: err.Error()})
			}
			return
		}
	}
	if _, err := w.Write(out); err != nil {
		return // client went away
	}
	s.met.predictLatency.observe(now().Sub(t0))

	sizeBytes = sessionOverheadBytes + int64(state.SizeOf(sess.eng))
	st := sess.liveStatus(sizeBytes)
	writeJSON(w, PredictEvent{Type: "done", Session: &st})
}

// sessionBlocks recycles the blocks predict requests decode into.
var sessionBlocks = sync.Pool{New: func() any {
	b := trace.NewBlock(sessionBlockCap)
	return &b
}}

// appendPreds appends the pred line of each MT dispatch of b to out, from
// the prediction lane preds of the engine that replayed b; seq is the
// session's lookup count before b. Whenever out reaches predFlushBytes it
// is written to w and emptied. It returns out and the first write error.
func appendPreds(w io.Writer, out []byte, b *trace.Block, preds []predictor.Prediction, seq uint64) ([]byte, error) {
	pcs, tgts := b.PC, b.Target
	for j, k := range b.MTIdx {
		p := preds[j]
		ev := PredictEvent{
			Type: "pred", Seq: seq + uint64(j) + 1,
			PC: pcs[k], Actual: tgts[k],
			Predicted: p.Predicted, Correct: p.Predicted && p.Target == tgts[k],
		}
		if p.Predicted {
			ev.Target = p.Target
		}
		out = appendPredLine(out, &ev)
		if len(out) >= predFlushBytes {
			if _, err := w.Write(out); err != nil {
				return out, err
			}
			out = out[:0]
		}
	}
	return out, nil
}

// predFlushBytes is how many bytes of pred lines a predict request holds
// before writing them to the ResponseWriter, so predictions keep flowing
// while a long body is still uploading.
const predFlushBytes = 4 << 10

// predLines recycles the pred-line buffer across predict requests. A
// buffer never grows past predFlushBytes plus one line.
var predLines = sync.Pool{New: func() any {
	b := make([]byte, 0, predFlushBytes+256)
	return &b
}}

// appendPredLine appends ev's NDJSON line to b, byte-identical to what
// json.Encoder writes for it: type, the non-zero seq, pc, target and
// actual, then predicted and correct. It covers exactly the fields a pred
// line carries (Session and Error stay unset on pred lines), and ev.Type
// must need no JSON escaping. A field added to PredictEvent must be added
// here too; TestAppendPredLineCoversEveryField fails until it is.
func appendPredLine(b []byte, ev *PredictEvent) []byte {
	b = append(b, `{"type":"`...)
	b = append(b, ev.Type...)
	b = append(b, '"')
	b = appendNonZero(b, `,"seq":`, ev.Seq)
	b = appendNonZero(b, `,"pc":`, ev.PC)
	b = appendNonZero(b, `,"target":`, ev.Target)
	b = appendNonZero(b, `,"actual":`, ev.Actual)
	b = append(b, `,"predicted":`...)
	b = strconv.AppendBool(b, ev.Predicted)
	b = append(b, `,"correct":`...)
	b = strconv.AppendBool(b, ev.Correct)
	return append(b, "}\n"...)
}

// appendNonZero appends an omitempty uint64 member: key and value, or
// nothing when v is zero.
func appendNonZero(b []byte, key string, v uint64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendUint(append(b, key...), v, 10)
}

// handleStateGet serializes the session's live state — engine accounting,
// RAS and predictor tables — as one snapshot (internal/state format). The
// bytes round-trip: uploading them into a fresh session of the same
// predictor continues byte-identically.
func (s *Server) handleStateGet(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such session")
		return
	}
	if !sess.acquire(now()) {
		httpError(w, http.StatusConflict, "session busy")
		return
	}
	sw := s.spool.Writer()
	data := state.Save(sess.eng, sw)
	sizeBytes := sessionOverheadBytes + int64(len(data))
	defer func() { s.releaseSession(sess, sizeBytes) }()

	w.Header().Set("Content-Type", "application/x-ppm-state")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Header().Set("X-Session-ID", sess.id)
	_, _ = w.Write(data)
	s.spool.PutWriter(sw)
	s.met.stateSaves.Add(1)
}

// handleStatePut warm-starts the session from an uploaded snapshot. The
// snapshot must match the session's predictor configuration: a mismatch is
// 409, corrupt bytes are 400, and in both cases the session's prior state is
// partially overwritten only up to the failing section — clients treating
// either as fatal should close the session.
func (s *Server) handleStatePut(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such session")
		return
	}
	if !sess.acquire(now()) {
		httpError(w, http.StatusConflict, "session busy")
		return
	}
	sizeBytes := int64(-1)
	defer func() { s.releaseSession(sess, sizeBytes) }()

	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
	if err != nil {
		code := http.StatusBadRequest
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			code = http.StatusRequestEntityTooLarge
		}
		s.met.badState.Add(1)
		httpError(w, code, err.Error())
		return
	}
	sr := s.spool.Reader()
	err = state.Load(sess.eng, sr, data)
	s.spool.PutReader(sr)
	if err != nil {
		s.met.badState.Add(1)
		code := http.StatusBadRequest
		if errors.Is(err, state.ErrMismatch) {
			code = http.StatusConflict
		}
		httpError(w, code, err.Error())
		return
	}
	s.met.stateLoads.Add(1)
	sizeBytes = sessionOverheadBytes + int64(len(data))

	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, sess.liveStatus(sizeBytes))
}
