package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/bench"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/state"
	"repro/internal/trace"
)

// sessionChunks is how many chunks each of an iteration's two sessions
// streams: the original before its state is saved, then the restored one.
const sessionChunks = 8

// counts is a session's cumulative status, as the done line reports it.
type counts struct {
	Records, Lookups, Correct, Wrong, NoPrediction uint64
}

func statusCounts(s serve.SessionStatus) counts {
	return counts{s.Records, s.Lookups, s.Correct, s.Wrong, s.NoPrediction}
}

// sessionCase is what one (family, run) iteration must read back, from a
// local ProcessPredicted replay through one never-stopped engine: per
// chunk, the hash of its pred lines and the cumulative counts after it,
// and the hash of the state snapshot taken halfway.
type sessionCase struct {
	lines [2 * sessionChunks]uint64
	after [2 * sessionChunks]counts
	state uint64
}

// sessionsEnv is the sessions workload's set-up: each seeded run's first
// records cut into chunks and pre-encoded as IBT2 bodies, and the service.
type sessionsEnv struct {
	lb       *loopback
	chunk    int // records per predict request
	families []string
	runs     [][]trace.Record
	chunks   [][][]byte
	want     [][]sessionCase // [family][run]
}

// hashSeed keys the hashes the sessions workload compares replies by;
// expected and actual hashes are both taken in this process.
var hashSeed = maphash.MakeSeed()

func hash64(b []byte) uint64 { return maphash.Bytes(hashSeed, b) }

// newSessionsEnv generates and encodes the chunks and boots the service.
func newSessionsEnv(c config) (*sessionsEnv, error) {
	env := &sessionsEnv{chunk: c.chunkRecords, families: bench.PredictorNames()}
	need := 2 * sessionChunks * env.chunk
	for _, cfg := range seededSuite(c.seed, c.sessionEvents) {
		recs, _ := cfg.Records()
		if len(recs) < need {
			return nil, fmt.Errorf("sessions: %s has %d records, need %d", cfg, len(recs), need)
		}
		recs = recs[:need]
		var bodies [][]byte
		for off := 0; off < need; off += env.chunk {
			body, err := encodeIBT2(recs[off : off+env.chunk])
			if err != nil {
				return nil, fmt.Errorf("encoding %s: %w", cfg, err)
			}
			bodies = append(bodies, body)
		}
		env.runs = append(env.runs, recs)
		env.chunks = append(env.chunks, bodies)
	}
	lb, err := startLoopback(c.clients)
	if err != nil {
		return nil, err
	}
	env.lb = lb
	return env, nil
}

// replayChunk feeds one chunk through eng as the service does and writes
// the pred lines the service streams back for it.
func replayChunk(eng *sim.Engine, recs []trace.Record, enc *json.Encoder) error {
	for _, rec := range recs {
		p, dispatched := eng.ProcessPredicted(rec)
		if !dispatched {
			continue
		}
		ev := serve.PredictEvent{
			Type: "pred", Seq: eng.Counters()[0].Lookups,
			PC: rec.PC, Actual: rec.Target,
			Predicted: p.Predicted, Correct: p.Correct,
		}
		if p.Predicted {
			ev.Target = p.Target
		}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

// expect computes every (family, run) case by local replay.
func (env *sessionsEnv) expect() error {
	var buf bytes.Buffer
	env.want = make([][]sessionCase, len(env.families))
	for f, name := range env.families {
		env.want[f] = make([]sessionCase, len(env.runs))
		for r, recs := range env.runs {
			p, _ := bench.NewPredictor(name)
			eng := sim.New(p)
			w := &env.want[f][r]
			for ch := range w.lines {
				buf.Reset()
				if err := replayChunk(eng, recs[ch*env.chunk:(ch+1)*env.chunk], json.NewEncoder(&buf)); err != nil {
					return err
				}
				w.lines[ch] = hash64(buf.Bytes())
				c := eng.Counters()[0]
				w.after[ch] = counts{eng.Records(), c.Lookups, c.Correct, c.Wrong, c.NoPrediction}
				if ch == sessionChunks-1 {
					w.state = hash64(state.SaveBytes(eng))
				}
			}
		}
	}
	return nil
}

// client is one closed-loop client's buffers and samples. chunkMS splits
// predict latencies into untraced [0] and traced [1] requests.
type client struct {
	buf, snap  bytes.Buffer
	chunkMS    [2][]float64
	warmMS     []float64
	records    uint64
	iterations int
	errs       []error
}

// create opens a session of the given family and returns its ID.
func (env *sessionsEnv) create(cl *client, family string, tr *tracer, root int, op int64) (string, error) {
	s := tr.begin("serve.session_create", root, op)
	code, err := env.lb.do(http.MethodPost, "/v1/sessions", "application/json", []byte(`{"predictor":"`+family+`"}`), &cl.buf)
	tr.end(s)
	if err != nil {
		return "", err
	}
	if code != http.StatusCreated {
		return "", statusError("create session", code, &cl.buf)
	}
	var st serve.SessionStatus
	if err := json.Unmarshal(cl.buf.Bytes(), &st); err != nil {
		return "", fmt.Errorf("create session: %w", err)
	}
	return st.ID, nil
}

// predict streams chunk ch of run r into session id and checks the reply
// against the case.
func (env *sessionsEnv) predict(cl *client, id string, r, ch int, want *sessionCase, tr *tracer, root int, op int64) error {
	s := tr.begin("serve.predict", root, op)
	t0 := now()
	code, err := env.lb.do(http.MethodPost, "/v1/sessions/"+id+"/predict", "application/x-ibt2", env.chunks[r][ch], &cl.buf)
	d := now().Sub(t0)
	tr.end(s)
	traced := 0
	if tr != nil {
		traced = 1
	}
	cl.chunkMS[traced] = append(cl.chunkMS[traced], float64(d)/1e6)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return statusError("predict", code, &cl.buf)
	}
	body := cl.buf.Bytes()
	cut := bytes.LastIndexByte(bytes.TrimSuffix(body, []byte("\n")), '\n') + 1
	var done serve.PredictEvent
	if err := json.Unmarshal(body[cut:], &done); err != nil {
		return fmt.Errorf("predict: decoding done line: %w", err)
	}
	if done.Type != "done" || done.Session == nil {
		return fmt.Errorf("predict: stream ended with %q: %s", done.Type, done.Error)
	}
	if hash64(body[:cut]) != want.lines[ch] {
		return fmt.Errorf("predict %s chunk %d: pred lines differ from the local replay", done.Session.Predictor, ch)
	}
	if got := statusCounts(*done.Session); got != want.after[ch] {
		return fmt.Errorf("predict %s chunk %d: %+v, want %+v", done.Session.Predictor, ch, got, want.after[ch])
	}
	cl.records += uint64(env.chunk)
	return nil
}

// iterate is one op: a session trained on eight chunks, its state moved
// into a second session, eight more chunks into that one, both deleted.
func (env *sessionsEnv) iterate(cl *client, k int64, tr *tracer) error {
	f, r := int(k)%len(env.families), int(k)%len(env.runs)
	family, want := env.families[f], &env.want[f][r]
	root := tr.begin("sessions.iteration", 0, k)
	defer tr.end(root)
	var ids []string
	defer func() {
		for _, id := range ids {
			s := tr.begin("serve.session_delete", root, k)
			code, err := env.lb.do(http.MethodDelete, "/v1/sessions/"+id, "", nil, &cl.buf)
			tr.end(s)
			if err == nil && code != http.StatusOK {
				err = statusError("delete session", code, &cl.buf)
			}
			if err != nil {
				cl.errs = append(cl.errs, err)
			}
		}
	}()

	a, err := env.create(cl, family, tr, root, k)
	if err != nil {
		return err
	}
	ids = append(ids, a)
	for ch := 0; ch < sessionChunks; ch++ {
		if err := env.predict(cl, a, r, ch, want, tr, root, k); err != nil {
			return err
		}
	}

	s := tr.begin("serve.state_get", root, k)
	t0 := now()
	code, err := env.lb.do(http.MethodGet, "/v1/sessions/"+a+"/state", "", nil, &cl.snap)
	get := now().Sub(t0)
	tr.end(s)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return statusError("get state", code, &cl.snap)
	}
	if hash64(cl.snap.Bytes()) != want.state {
		return fmt.Errorf("get state %s: snapshot differs from the local engine's", family)
	}
	b, err := env.create(cl, family, tr, root, k)
	if err != nil {
		return err
	}
	ids = append(ids, b)
	s = tr.begin("serve.state_put", root, k)
	t0 = now()
	code, err = env.lb.do(http.MethodPut, "/v1/sessions/"+b+"/state", "application/x-ppm-state", cl.snap.Bytes(), &cl.buf)
	put := now().Sub(t0)
	tr.end(s)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return statusError("put state", code, &cl.buf)
	}
	cl.warmMS = append(cl.warmMS, float64(get+put)/1e6)
	for ch := sessionChunks; ch < 2*sessionChunks; ch++ {
		if err := env.predict(cl, b, r, ch, want, tr, root, k); err != nil {
			return err
		}
	}
	return nil
}

// closedLoop runs iterations from c.clients clients until seconds have
// passed, numbering iterations from first.
func (env *sessionsEnv) closedLoop(o *outcome, clients int, seconds float64, first int64) ([]*client, float64) {
	var next atomic.Int64
	next.Store(first)
	cls := make([]*client, clients)
	var wg sync.WaitGroup
	start := now()
	for i := range cls {
		cl := &client{}
		cls[i] = cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cl.iterations == 0 || now().Sub(start).Seconds() < seconds {
				k := next.Add(1) - 1
				if err := env.iterate(cl, k, o.tracerFor(k)); err != nil {
					cl.errs = append(cl.errs, err)
				}
				cl.iterations++
				o.heap.sample()
			}
		}()
	}
	wg.Wait()
	return cls, now().Sub(start).Seconds()
}

// runSessions is the live-session workload: a closed loop of c.clients
// clients, each iteration a session's life from creation through a warm
// start into a second session, the family rotating through every
// predictor and the run through the seeded suite.
func runSessions(c config, tr *tracer) (*outcome, error) {
	o := newOutcome("sessions", tr)
	var env *sessionsEnv
	setups := make([]float64, c.setups)
	var warm []*client
	var want [][]sessionCase
	for i := range setups {
		if env != nil {
			if err := env.lb.close(); err != nil {
				return nil, err
			}
		}
		t0 := now()
		var err error
		if env, err = newSessionsEnv(c); err != nil {
			return nil, err
		}
		setups[i] = now().Sub(t0).Seconds()
		if want == nil {
			if err := env.expect(); err != nil {
				return nil, err
			}
			want = env.want
		}
		env.want = want
		t0 = now()
		cls, _ := env.closedLoop(newOutcome("sessions", nil), c.clients, 0, 0)
		setups[i] += now().Sub(t0).Seconds()
		warm = append(warm, cls...)
	}
	defer func() { _ = env.lb.close() }()

	before := readRuntime()
	cls, elapsed := env.closedLoop(o, c.clients, c.seconds, 1<<20)
	var chunkMS, warmMS []float64
	var records uint64
	ops := 0
	for _, cl := range cls {
		for traced, ms := range cl.chunkMS {
			chunkMS = append(chunkMS, ms...)
			o.opMS[traced] = append(o.opMS[traced], ms...)
		}
		warmMS = append(warmMS, cl.warmMS...)
		records += cl.records
		ops += cl.iterations
	}
	o.noteRuntime(before, readRuntime(), ops)
	for _, cl := range append(warm, cls...) {
		o.attempted += cl.iterations
		for _, err := range cl.errs {
			o.fail(err.Error())
		}
	}

	o.metrics["setup_s"] = summarize(setups, 0.5)
	o.metrics["latency_ms.p50"] = summarize(chunkMS, 0.5)
	o.metrics["records_per_s"] = one(float64(records) / elapsed)
	o.metrics["heap_mb.peak"] = o.heap.peak()
	// The service's predict latency is its in-process decode, replay and
	// encoding of the same chunks, over the same requests.
	st := env.lb.srv.Stats()
	o.layer["serve.predict_ms.p90"] = summarize(chunkMS, 0.9).Value
	o.layer["serve.warmstart_ms.p50"] = median(warmMS)
	o.layer["serve.server_predict_ms.p50"] = st.PredictP50MS
	o.layer["serve.server_predict_ms.p99"] = st.PredictP99MS
	o.layer["serve.predict_overhead_ms.p50"] = median(chunkMS) - st.PredictP50MS
	return o, nil
}
