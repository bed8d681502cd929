package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/check/leakcheck"
	"repro/internal/sim"
	"repro/internal/trace"
)

// testServer spins up a Server over httptest with test-sized defaults;
// cleanup drains it and closes the listener.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.JobTTL == 0 {
		cfg.JobTTL = time.Minute
	}
	if cfg.JobTimeout == 0 {
		cfg.JobTimeout = time.Minute
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
	})
	return s, ts
}

func submitSpec(t *testing.T, base string, spec JobSpec) (JobStatus, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	resp.Body.Close()
	return st, resp
}

// streamResults follows a job's NDJSON stream to its done event.
func streamResults(t *testing.T, base, id string) ([]CellResult, Event) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results status = %d", resp.StatusCode)
	}
	var cells []CellResult
	var done Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "cell":
			cells = append(cells, *ev.Cell)
		case "done":
			done = ev
		default:
			t.Fatalf("unknown event type %q", ev.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if done.Type != "done" {
		t.Fatal("stream ended without a done event")
	}
	return cells, done
}

func TestSubmitStreamStatus(t *testing.T) {
	s, ts := testServer(t, Config{MaxConcurrent: 2})
	st, resp := submitSpec(t, ts.URL, JobSpec{
		Suite: "fig6", Workloads: []string{"troff.ped", "eqn"}, Events: 500,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	if st.ID == "" || st.Cells != 2 {
		t.Fatalf("submit status = %+v", st)
	}

	cells, done := streamResults(t, ts.URL, st.ID)
	if done.State != StateDone {
		t.Fatalf("final state = %q (%s)", done.State, done.Error)
	}
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	for _, c := range cells {
		if len(c.Predictors) != 7 {
			t.Errorf("cell %q has %d predictors, want the 7 of fig6", c.Run, len(c.Predictors))
		}
		if c.Records == 0 || c.Predictors[0].Lookups == 0 {
			t.Errorf("cell %q carries empty counters", c.Run)
		}
	}

	// Replay after completion must serve the identical log.
	replay, done2 := streamResults(t, ts.URL, st.ID)
	if done2.State != StateDone || len(replay) != len(cells) {
		t.Fatalf("replay: %d cells, state %q", len(replay), done2.State)
	}

	// Poll endpoint agrees.
	r2, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var st2 JobStatus
	_ = json.NewDecoder(r2.Body).Decode(&st2)
	r2.Body.Close()
	if st2.State != StateDone || st2.Done != 2 {
		t.Fatalf("status after completion = %+v", st2)
	}

	stats := s.Stats()
	if stats.JobsCompleted != 1 || stats.Cells != 2 || stats.LatencySamples != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

// TestServedCountersMatchDirectSimulation is the package-level determinism
// check: counters served over HTTP equal a fresh serial simulation of the
// same cells. (The byte-identical comparison against the cmd/experiments
// renderer lives in that package's serve_test.go.)
func TestServedCountersMatchDirectSimulation(t *testing.T) {
	_, ts := testServer(t, Config{MaxConcurrent: 4})
	names := []string{"troff.ped", "ixx.wid"}
	st, _ := submitSpec(t, ts.URL, JobSpec{Suite: "fig7", Workloads: names, Events: 800})
	cells, done := streamResults(t, ts.URL, st.ID)
	if done.State != StateDone || len(cells) != 2 {
		t.Fatalf("cells=%d state=%q", len(cells), done.State)
	}
	for _, c := range cells {
		cfg, ok := bench.ByName(c.Run)
		if !ok {
			t.Fatalf("served unknown run %q", c.Run)
		}
		cfg.Events = 800
		recs, _ := cfg.Records()
		e := sim.New(bench.Figure7Predictors()...)
		e.ProcessAll(recs)
		want := cellResult(c.Index, c.Run, e)
		wantJSON, _ := json.Marshal(want)
		gotJSON, _ := json.Marshal(c)
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Errorf("served cell diverges from direct simulation\n got: %s\nwant: %s", gotJSON, wantJSON)
		}
	}
}

// gatedServer installs a cell hook that parks every cell (while holding its
// simulation slot) until release is closed or the job dies.
func gatedServer(t *testing.T, cfg Config) (*Server, *httptest.Server, chan struct{}, chan struct{}) {
	s, ts := testServer(t, cfg)
	release := make(chan struct{})
	entered := make(chan struct{}, 64)
	s.cellHook = func(j *job, cell int) {
		entered <- struct{}{}
		select {
		case <-release:
		case <-j.ctx.Done():
		}
	}
	return s, ts, release, entered
}

// TestBackpressure429 pins the load-shedding acceptance criterion: beyond
// MaxActive the server sheds submissions with 429 + Retry-After instead of
// queueing, and recovers once the active job finishes.
func TestBackpressure429(t *testing.T) {
	s, ts, release, entered := gatedServer(t, Config{MaxConcurrent: 1, MaxActive: 1})

	st1, resp1 := submitSpec(t, ts.URL, JobSpec{Workloads: []string{"eqn"}, Events: 300})
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", resp1.StatusCode)
	}
	<-entered // the cell holds the only slot now

	_, resp2 := submitSpec(t, ts.URL, JobSpec{Workloads: []string{"eqn"}, Events: 300})
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit = %d, want 429", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// An upload is shed the same way while the slot is held.
	up, err := http.Post(ts.URL+"/v1/jobs", "application/x-ibt2", strings.NewReader("IBT2"))
	if err != nil {
		t.Fatal(err)
	}
	up.Body.Close()
	if up.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated upload = %d, want 429", up.StatusCode)
	}

	close(release)
	if _, done := streamResults(t, ts.URL, st1.ID); done.State != StateDone {
		t.Fatalf("first job state = %q", done.State)
	}
	if _, resp3 := submitSpec(t, ts.URL, JobSpec{Workloads: []string{"eqn"}, Events: 300}); resp3.StatusCode != http.StatusAccepted {
		t.Fatalf("post-recovery submit = %d", resp3.StatusCode)
	}
	if s.Stats().Rejected < 2 {
		t.Errorf("rejected counter = %d, want >= 2", s.Stats().Rejected)
	}
}

func TestCancel(t *testing.T) {
	s, ts, _, entered := gatedServer(t, Config{MaxConcurrent: 1})
	st, _ := submitSpec(t, ts.URL, JobSpec{Workloads: []string{"eqn"}, Events: 300})
	<-entered

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if _, done := streamResults(t, ts.URL, st.ID); done.State != StateCancelled {
		t.Fatalf("state after cancel = %q", done.State)
	}
	if s.Stats().JobsCancelled != 1 {
		t.Errorf("cancelled counter = %d", s.Stats().JobsCancelled)
	}
}

func TestJobDeadline(t *testing.T) {
	s, ts, _, entered := gatedServer(t, Config{MaxConcurrent: 1, JobTimeout: 50 * time.Millisecond})
	st, _ := submitSpec(t, ts.URL, JobSpec{Workloads: []string{"eqn"}, Events: 300})
	<-entered
	_, done := streamResults(t, ts.URL, st.ID)
	if done.State != StateFailed || !strings.Contains(done.Error, "deadline") {
		t.Fatalf("state = %q error = %q, want failed/deadline", done.State, done.Error)
	}
	if s.Stats().JobsFailed != 1 {
		t.Errorf("failed counter = %d", s.Stats().JobsFailed)
	}
}

// TestShutdownDrains pins half of the graceful-shutdown acceptance
// criterion: during drain the server flips /readyz, rejects new work with
// 503, lets the in-flight job finish, and Shutdown returns nil.
func TestShutdownDrains(t *testing.T) {
	// A drained server must leave no goroutines behind: workers, janitor,
	// and the shutdown helper itself all exit.
	leakcheck.Check(t)
	s, ts, release, entered := gatedServer(t, Config{MaxConcurrent: 1})
	st, _ := submitSpec(t, ts.URL, JobSpec{Workloads: []string{"eqn"}, Events: 300})
	<-entered

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// Draining becomes observable before the drain completes.
	waitFor(t, func() bool {
		r, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			return false
		}
		defer r.Body.Close()
		return r.StatusCode == http.StatusServiceUnavailable
	})
	if _, resp := submitSpec(t, ts.URL, JobSpec{Workloads: []string{"eqn"}}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}
	// Liveness stays green while readiness is red.
	if r, err := http.Get(ts.URL + "/healthz"); err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain: %v %v", r, err)
	} else {
		r.Body.Close()
	}

	close(release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown = %v, want nil (drained)", err)
	}
	// The drained job completed and its results survived the drain.
	if _, done := streamResults(t, ts.URL, st.ID); done.State != StateDone {
		t.Fatalf("in-flight job state after drain = %q, want done", done.State)
	}
}

// TestShutdownDrainTimeout pins the other half: a drain that cannot finish
// inside its bound aborts the stragglers (cancelled, with the drain cause
// recorded) and Shutdown returns the context error instead of hanging.
func TestShutdownDrainTimeout(t *testing.T) {
	s, ts, _, entered := gatedServer(t, Config{MaxConcurrent: 1})
	st, _ := submitSpec(t, ts.URL, JobSpec{Workloads: []string{"eqn"}, Events: 300})
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	_, done := streamResults(t, ts.URL, st.ID)
	if done.State != StateCancelled || !strings.Contains(done.Error, "drain") {
		t.Fatalf("straggler state = %q error = %q, want cancelled by drain", done.State, done.Error)
	}
}

func TestTTLEviction(t *testing.T) {
	s, ts := testServer(t, Config{JobTTL: 60 * time.Millisecond})
	st, _ := submitSpec(t, ts.URL, JobSpec{Workloads: []string{"eqn"}, Events: 200})
	if _, done := streamResults(t, ts.URL, st.ID); done.State != StateDone {
		t.Fatalf("state = %q", done.State)
	}
	// The janitor (ticking at >= 50ms) must expire the session on its own.
	waitFor(t, func() bool {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		return resp.StatusCode == http.StatusNotFound
	})
	if s.Stats().Evicted == 0 {
		t.Error("eviction not counted")
	}
	if s.Stats().TableJobs != 0 {
		t.Errorf("table still holds %d jobs", s.Stats().TableJobs)
	}
}

func TestUploadTrace(t *testing.T) {
	_, ts := testServer(t, Config{MaxConcurrent: 1})

	cfg, _ := bench.ByName("troff.ped")
	cfg.Events = 400
	recs, _ := cfg.Records()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	encoded := buf.Bytes()

	resp, err := http.Post(ts.URL+"/v1/jobs?suite=fig6&label=troff-upload",
		"application/x-ibt2", bytes.NewReader(encoded))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload status = %d", resp.StatusCode)
	}
	var cellEv, doneEv Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type == "cell" {
			cellEv = ev
		} else {
			doneEv = ev
		}
	}
	if doneEv.State != StateDone || cellEv.Cell == nil {
		t.Fatalf("upload events: cell=%+v done=%+v", cellEv, doneEv)
	}
	if cellEv.Cell.Run != "troff-upload" || cellEv.Cell.Records != uint64(len(recs)) {
		t.Errorf("cell = %+v, want label troff-upload over %d records", cellEv.Cell, len(recs))
	}

	// The uploaded-trace counters must equal simulating the same records
	// locally: the stream decodes losslessly and feeds the same engine.
	e := sim.New(bench.Figure6Predictors()...)
	e.ProcessAll(recs)
	want := cellResult(0, "troff-upload", e)
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(*cellEv.Cell)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("upload cell diverges from local simulation\n got: %s\nwant: %s", gotJSON, wantJSON)
	}
}

// TestUploadTruncated400 pins the ErrTruncated satellite end to end: a
// byte-sliced upload is a client error (400 naming the truncation), never a
// 500.
func TestUploadTruncated400(t *testing.T) {
	s, ts := testServer(t, Config{MaxConcurrent: 1})

	cfg, _ := bench.ByName("eqn")
	cfg.Events = 50
	recs, _ := cfg.Records()
	var buf bytes.Buffer
	w, _ := trace.NewWriter(&buf)
	for _, r := range recs {
		_ = w.Write(r)
	}
	_ = w.Flush()
	cut := buf.Bytes()[:buf.Len()-2] // mid-varint of the last record

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/x-ibt2", bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated upload status = %d, want 400", resp.StatusCode)
	}
	var body map[string]string
	_ = json.NewDecoder(resp.Body).Decode(&body)
	if !strings.Contains(body["error"], "truncated") {
		t.Errorf("error body %q does not name the truncation", body["error"])
	}

	// Bad magic is equally a 400.
	resp2, err := http.Post(ts.URL+"/v1/jobs", "application/octet-stream", strings.NewReader("NOPE"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-magic upload status = %d, want 400", resp2.StatusCode)
	}
	if s.Stats().BadUploads != 2 {
		t.Errorf("bad-upload counter = %d, want 2", s.Stats().BadUploads)
	}
}

// uploadReply is what the fig6 upload path answered: the status, the
// streamed cell (on success) and the error message (on failure).
type uploadReply struct {
	code int
	cell *CellResult
	msg  string
	err  error
}

// uploadCell posts an IBT2 body to the fig6 upload path. It touches no
// testing.T, so concurrent uploads can call it from their own goroutines.
func uploadCell(base string, body []byte) (r uploadReply) {
	resp, err := http.Post(base+"/v1/jobs?suite=fig6", "application/x-ibt2", bytes.NewReader(body))
	if err != nil {
		return uploadReply{err: err}
	}
	defer resp.Body.Close()
	r.code = resp.StatusCode
	dec := json.NewDecoder(resp.Body)
	if r.code != http.StatusOK {
		var e map[string]string
		r.err = dec.Decode(&e)
		r.msg = e["error"]
		return r
	}
	for {
		var ev Event
		if r.err = dec.Decode(&ev); r.err != nil {
			return r
		}
		if ev.Type == "done" {
			r.msg = ev.Error
			return r
		}
		r.cell = ev.Cell
	}
}

// TestUploadBlockBoundaries drives the per-block upload loop across block
// boundaries: uploads one short of, exactly at, one past and two blocks
// past trace.BlockCap, sent concurrently so they share the server's pooled
// decode blocks, must serve sim.Run's counters over every record; a cut
// inside a record of the second block must fail as a truncation that
// counts the whole records before it.
func TestUploadBlockBoundaries(t *testing.T) {
	_, ts := testServer(t, Config{MaxConcurrent: 4})
	const longest = 2*trace.BlockCap + 7
	all := benchRecords(t, "gcc.cp", 4000)
	if len(all) < longest {
		t.Fatalf("workload has %d records, need %d", len(all), longest)
	}
	sizes := []int{trace.BlockCap - 1, trace.BlockCap, trace.BlockCap + 1, longest}
	bodies := make([][]byte, len(sizes))
	for i, n := range sizes {
		bodies[i] = encodeIBT2(t, all[:n])
	}
	replies := make([]uploadReply, len(sizes))
	var wg sync.WaitGroup
	for i := range sizes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i] = uploadCell(ts.URL, bodies[i])
		}(i)
	}
	wg.Wait()
	for i, n := range sizes {
		r := replies[i]
		if r.err != nil || r.code != http.StatusOK || r.cell == nil {
			t.Fatalf("%d records: status %d, error %q, %v", n, r.code, r.msg, r.err)
		}
		if r.cell.Records != uint64(n) {
			t.Errorf("%d records: cell counted %d", n, r.cell.Records)
		}
		want := sim.Run(all[:n], bench.Figure6Predictors()...)
		if len(r.cell.Predictors) != len(want) {
			t.Fatalf("%d records: %d predictors served, want %d", n, len(r.cell.Predictors), len(want))
		}
		for k, p := range r.cell.Predictors {
			w := PredictorResult{Name: want[k].Predictor, Lookups: want[k].Lookups,
				Correct: want[k].Correct, Wrong: want[k].Wrong, NoPrediction: want[k].NoPrediction}
			if p != w {
				t.Errorf("%d records: served %+v, sim.Run %+v", n, p, w)
			}
		}
	}

	// Cut one byte into record k, which sits in the second block.
	k := trace.BlockCap + 100
	cut := encodeIBT2(t, all[:k+1])[:len(encodeIBT2(t, all[:k]))+1]
	r := uploadCell(ts.URL, cut)
	if want := fmt.Sprintf("truncated after %d records", k); r.code != http.StatusBadRequest || !strings.Contains(r.msg, want) {
		t.Errorf("mid-record cut: status %d, error %q; want 400 naming %q", r.code, r.msg, want)
	}
}

func TestBadSpecs400(t *testing.T) {
	_, ts := testServer(t, Config{MaxEvents: 10_000})
	for name, spec := range map[string]JobSpec{
		"unknown suite":     {Suite: "fig99"},
		"unknown workload":  {Workloads: []string{"nope.nope"}},
		"unknown predictor": {Predictors: []string{"NOPE"}},
		"suite+predictors":  {Suite: "fig6", Predictors: []string{"BTB"}},
		"events over cap":   {Workloads: []string{"eqn"}, Events: 20_000},
	} {
		if _, resp := submitSpec(t, ts.URL, spec); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status = %d, want 400", resp.StatusCode)
	}
}

// waitFor polls cond until it holds or a generous deadline expires.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second) //lint:wallclock test polling deadline
	for !cond() {
		if time.Now().After(deadline) { //lint:wallclock test polling deadline
			t.Fatal("condition not reached in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStatszAndExpvar smoke-tests the stats surfaces.
func TestStatszAndExpvar(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, path := range []string{"/statsz", "/debug/vars"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var v map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("%s: not JSON: %v", path, err)
		}
		resp.Body.Close()
	}
	st, _ := submitSpec(t, ts.URL, JobSpec{Workloads: []string{"eqn"}, Events: 200})
	streamResults(t, ts.URL, st.ID)
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.JobsCompleted != 1 || stats.Cache.Generated == 0 {
		t.Errorf("statsz = %+v", stats)
	}
	_ = fmt.Sprint(st) // keep st referenced under all build tags
}
