package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/sim"
	"repro/internal/state"
	"repro/internal/trace"
)

// encodeIBT2 serializes records in the wire format predict uploads use.
func encodeIBT2(t testing.TB, recs []trace.Record) []byte {
	t.Helper()
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
	return buf.Bytes()
}

// benchRecords materializes a workload's records for streaming.
func benchRecords(t testing.TB, workload string, events int) []trace.Record {
	t.Helper()
	cfg, ok := bench.ByName(workload)
	if !ok {
		t.Fatalf("unknown workload %q", workload)
	}
	cfg.Events = events
	recs, _ := cfg.Records()
	return recs
}

func createSession(t *testing.T, base, predictor string) SessionStatus {
	t.Helper()
	st, resp := tryCreateSession(t, base, predictor)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session: status = %d", resp.StatusCode)
	}
	return st
}

func tryCreateSession(t *testing.T, base, predictor string) (SessionStatus, *http.Response) {
	t.Helper()
	var body io.Reader
	if predictor != "" {
		b, _ := json.Marshal(SessionSpec{Predictor: predictor})
		body = bytes.NewReader(b)
	} else {
		body = strings.NewReader("")
	}
	resp, err := http.Post(base+"/v1/sessions", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st SessionStatus
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp
}

// predictStream uploads records to a session and collects the NDJSON reply.
func predictStream(t *testing.T, base, id string, recs []trace.Record) (preds []PredictEvent, done PredictEvent) {
	t.Helper()
	return parsePredict(t, predictRaw(t, base, id, recs))
}

// predictRaw uploads records to a session and returns the raw NDJSON reply.
func predictRaw(t *testing.T, base, id string, recs []trace.Record) []byte {
	t.Helper()
	resp, err := http.Post(base+"/v1/sessions/"+id+"/predict",
		"application/x-ibt2", bytes.NewReader(encodeIBT2(t, recs)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Fatalf("predict Content-Type = %q", got)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// parsePredict splits a predict reply into its pred events and the
// terminal done event, failing t on anything else.
func parsePredict(t *testing.T, raw []byte) (preds []PredictEvent, done PredictEvent) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	for {
		var ev PredictEvent
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		switch ev.Type {
		case "pred":
			preds = append(preds, ev)
		case "done":
			done = ev
		default:
			t.Fatalf("unexpected event type %q (error: %s)", ev.Type, ev.Error)
		}
	}
	if done.Type != "done" || done.Session == nil {
		t.Fatal("predict stream ended without a done event")
	}
	return preds, done
}

// getState downloads a session's snapshot bytes.
func getState(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/sessions/" + id + "/state")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("state download status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/x-ppm-state" {
		t.Fatalf("state Content-Type = %q", got)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// putState uploads a snapshot into a session and returns the response.
func putState(t *testing.T, base, id string, data []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, base+"/v1/sessions/"+id+"/state",
		bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ppm-state")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func closeSession(t *testing.T, base, id string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/sessions/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func sessionStatusCode(t *testing.T, base, id string) int {
	t.Helper()
	resp, err := http.Get(base + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestSessionLifecycle(t *testing.T) {
	_, ts := testServer(t, Config{})

	st := createSession(t, ts.URL, "")
	if st.ID == "" || st.Predictor != "PPM-hyb" {
		t.Fatalf("created session = %+v, want default predictor PPM-hyb", st)
	}
	if st.Records != 0 || st.StateBytes <= sessionOverheadBytes {
		t.Fatalf("fresh session status = %+v", st)
	}

	st2 := createSession(t, ts.URL, "BTB2b")
	resp, err := http.Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var list []SessionStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 2 || list[0].ID != st.ID || list[1].ID != st2.ID {
		t.Fatalf("session list = %+v", list)
	}

	if code := sessionStatusCode(t, ts.URL, st.ID); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if resp := closeSession(t, ts.URL, st.ID); resp.StatusCode != http.StatusOK {
		t.Fatalf("close status = %d", resp.StatusCode)
	}
	if code := sessionStatusCode(t, ts.URL, st.ID); code != http.StatusNotFound {
		t.Fatalf("status after close = %d, want 404", code)
	}
	if resp := closeSession(t, ts.URL, st.ID); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double close status = %d, want 404", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"predictor":"no-such-family"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown predictor status = %d, want 400", resp.StatusCode)
	}
}

// TestSessionPredictMatchesLocal pins the streamed predictions and the
// final snapshot to a local engine replaying the same records: the served
// online learner is the batch simulator, bit for bit.
func TestSessionPredictMatchesLocal(t *testing.T) {
	_, ts := testServer(t, Config{})
	recs := benchRecords(t, "troff.ped", 600)

	st := createSession(t, ts.URL, "PPM-hyb")
	raw := predictRaw(t, ts.URL, st.ID, recs)
	preds, done := parsePredict(t, raw)

	p, _ := bench.NewPredictor("PPM-hyb")
	eng := sim.New(p)
	var want []PredictEvent
	var wantLines bytes.Buffer
	enc := json.NewEncoder(&wantLines)
	for _, r := range recs {
		pr, dispatched := eng.ProcessPredicted(r)
		if !dispatched {
			continue
		}
		ev := PredictEvent{
			Type: "pred", Seq: eng.Counters()[0].Lookups,
			PC: r.PC, Actual: r.Target,
			Predicted: pr.Predicted, Correct: pr.Correct,
		}
		if pr.Predicted {
			ev.Target = pr.Target
		}
		want = append(want, ev)
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	if len(preds) != len(want) {
		t.Fatalf("streamed %d pred events, local engine dispatched %d", len(preds), len(want))
	}
	for i := range want {
		if preds[i] != want[i] {
			t.Fatalf("pred %d: got %+v, want %+v", i, preds[i], want[i])
		}
	}
	// The pred lines are appended by hand; on the wire they must be the
	// bytes json.Encoder writes for the same events.
	if got := raw[:bytes.LastIndex(raw, []byte(`{"type":"done"`))]; !bytes.Equal(got, wantLines.Bytes()) {
		t.Fatalf("pred lines (%d bytes) differ from json.Encoder's (%d bytes)", len(got), wantLines.Len())
	}

	c := eng.Counters()[0]
	s := done.Session
	if s.Records != eng.Records() || s.Lookups != c.Lookups ||
		s.Correct != c.Correct || s.Wrong != c.Wrong || s.NoPrediction != c.NoPrediction {
		t.Fatalf("done status %+v diverges from local counters %+v", s, c)
	}

	snap := getState(t, ts.URL, st.ID)
	if local := state.SaveBytes(eng); !bytes.Equal(snap, local) {
		t.Fatalf("served snapshot (%d bytes) != local snapshot (%d bytes)", len(snap), len(local))
	}
	if want := sessionOverheadBytes + int64(len(snap)); s.StateBytes != want {
		t.Errorf("done StateBytes = %d, want overhead+snapshot = %d", s.StateBytes, want)
	}
}

// TestSessionStateRoundTrip proves warm start over the wire: state downloaded
// mid-stream and uploaded into a fresh session continues byte-identically.
func TestSessionStateRoundTrip(t *testing.T) {
	_, ts := testServer(t, Config{})
	recs := benchRecords(t, "eqn", 800)
	half := len(recs) / 2

	a := createSession(t, ts.URL, "PPM-hyb")
	predictStream(t, ts.URL, a.ID, recs[:half])
	snap := getState(t, ts.URL, a.ID)

	b := createSession(t, ts.URL, "PPM-hyb")
	if resp := putState(t, ts.URL, b.ID, snap); resp.StatusCode != http.StatusOK {
		t.Fatalf("state upload status = %d", resp.StatusCode)
	}
	if !bytes.Equal(getState(t, ts.URL, b.ID), snap) {
		t.Fatal("restored session re-serializes differently before any traffic")
	}

	predsA, doneA := predictStream(t, ts.URL, a.ID, recs[half:])
	predsB, doneB := predictStream(t, ts.URL, b.ID, recs[half:])
	if len(predsA) != len(predsB) {
		t.Fatalf("continuations diverge: %d vs %d pred events", len(predsA), len(predsB))
	}
	for i := range predsA {
		if predsA[i] != predsB[i] {
			t.Fatalf("continuation pred %d: original %+v, restored %+v", i, predsA[i], predsB[i])
		}
	}
	sa, sb := *doneA.Session, *doneB.Session
	sa.ID, sb.ID = "", ""
	if sa != sb {
		t.Fatalf("continuation statuses diverge: %+v vs %+v", sa, sb)
	}
	if !bytes.Equal(getState(t, ts.URL, a.ID), getState(t, ts.URL, b.ID)) {
		t.Fatal("final snapshots diverge after identical continuations")
	}
}

func TestSessionStatePutErrors(t *testing.T) {
	s, ts := testServer(t, Config{})

	st := createSession(t, ts.URL, "PPM-hyb")
	if resp := putState(t, ts.URL, st.ID, []byte("not a snapshot")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt upload status = %d, want 400", resp.StatusCode)
	}

	// A snapshot of a different predictor family is a config mismatch, not
	// corruption: 409, telling the client to make a matching session.
	other := createSession(t, ts.URL, "BTB2b")
	snap := getState(t, ts.URL, other.ID)
	if resp := putState(t, ts.URL, st.ID, snap); resp.StatusCode != http.StatusConflict {
		t.Fatalf("mismatched upload status = %d, want 409", resp.StatusCode)
	}

	if got := s.Stats().BadState; got != 2 {
		t.Errorf("bad_state = %d, want 2", got)
	}
	if resp := putState(t, ts.URL, "s-999", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing session upload status = %d, want 404", resp.StatusCode)
	}
}

func TestSessionPredictErrors(t *testing.T) {
	_, ts := testServer(t, Config{})
	st := createSession(t, ts.URL, "")

	resp, err := http.Post(ts.URL+"/v1/sessions/"+st.ID+"/predict",
		"application/x-ibt2", strings.NewReader("definitely not IBT2"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage upload status = %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/sessions/s-999/predict",
		"application/x-ibt2", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing session predict status = %d, want 404", resp.StatusCode)
	}
}

// TestSessionBusyConflict pins the single-owner engine claim: any predict or
// state request against a session already serving one is shed with 409.
func TestSessionBusyConflict(t *testing.T) {
	s, ts := testServer(t, Config{})
	st := createSession(t, ts.URL, "")

	sess, ok := s.lookupSession(st.ID)
	if !ok || !sess.acquire(now()) {
		t.Fatal("could not claim the session directly")
	}
	defer s.releaseSession(sess, -1)

	resp, err := http.Post(ts.URL+"/v1/sessions/"+st.ID+"/predict",
		"application/x-ibt2", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("busy predict status = %d, want 409", resp.StatusCode)
	}
	for _, m := range []string{http.MethodGet, http.MethodPut} {
		req, _ := http.NewRequest(m, ts.URL+"/v1/sessions/"+st.ID+"/state", strings.NewReader(""))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("busy state %s status = %d, want 409", m, resp.StatusCode)
		}
	}

	// Status and list read the published snapshot, never the engine: they
	// must keep answering while the session is busy.
	if code := sessionStatusCode(t, ts.URL, st.ID); code != http.StatusOK {
		t.Fatalf("busy status = %d, want 200", code)
	}
}

// TestSessionByteBudgetEviction is the regression test for session memory
// accounting: the byte budget must charge live predictor state
// (state.SizeOf), not just per-session metadata, so trained sessions are
// evicted on bytes long before the session-count cap is near.
func TestSessionByteBudgetEviction(t *testing.T) {
	p, _ := bench.NewPredictor("PPM-hyb")
	freshCharge := sessionOverheadBytes + int64(state.SizeOf(sim.New(p)))

	// Room for exactly two untrained sessions; MaxSessions stays at its
	// 4096 default, so any eviction below is byte-driven.
	s, ts := testServer(t, Config{SessionBytes: 2 * freshCharge})

	a := createSession(t, ts.URL, "PPM-hyb")
	predictStream(t, ts.URL, a.ID, benchRecords(t, "troff.ped", 600))

	grown := s.Stats().SessionBytes
	if grown <= freshCharge {
		t.Fatalf("session_bytes = %d after training, want > fresh charge %d (state growth must be accounted)",
			grown, freshCharge)
	}

	// The trained session plus a fresh one no longer fit, so admission must
	// evict the (only) idle session rather than blow the budget.
	b := createSession(t, ts.URL, "PPM-hyb")
	if code := sessionStatusCode(t, ts.URL, a.ID); code != http.StatusNotFound {
		t.Fatalf("trained session status = %d, want 404 (evicted for bytes)", code)
	}
	if code := sessionStatusCode(t, ts.URL, b.ID); code != http.StatusOK {
		t.Fatalf("new session status = %d, want 200", code)
	}
	stats := s.Stats()
	if stats.SessionsEvicted == 0 {
		t.Error("sessions_evicted = 0, want at least 1")
	}
	if stats.SessionBytes > 2*freshCharge {
		t.Errorf("session_bytes = %d exceeds budget %d", stats.SessionBytes, 2*freshCharge)
	}
	if stats.LiveSessions != 1 {
		t.Errorf("live_sessions = %d, want 1", stats.LiveSessions)
	}
}

// TestSessionBudgetExhausted429 pins the shed path when eviction cannot help.
func TestSessionBudgetExhausted429(t *testing.T) {
	_, ts := testServer(t, Config{SessionBytes: 1})
	if _, resp := tryCreateSession(t, ts.URL, ""); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("create status = %d, want 429", resp.StatusCode)
	}
}

func TestSessionTableFullEvictsIdle(t *testing.T) {
	s, ts := testServer(t, Config{MaxSessions: 1})
	a := createSession(t, ts.URL, "")
	b := createSession(t, ts.URL, "")
	if code := sessionStatusCode(t, ts.URL, a.ID); code != http.StatusNotFound {
		t.Fatalf("first session status = %d, want 404 (evicted for the slot)", code)
	}

	// A busy session is never evicted: with the single slot claimed, the
	// table is hard-full and admission sheds.
	sess, _ := s.lookupSession(b.ID)
	if !sess.acquire(now()) {
		t.Fatal("could not claim the session")
	}
	defer s.releaseSession(sess, -1)
	if _, resp := tryCreateSession(t, ts.URL, ""); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("create over a busy full table = %d, want 429", resp.StatusCode)
	}
}

func TestSessionTTLEviction(t *testing.T) {
	s, ts := testServer(t, Config{SessionTTL: 60 * time.Millisecond})
	st := createSession(t, ts.URL, "")

	deadline := time.Now().Add(5 * time.Second)
	for sessionStatusCode(t, ts.URL, st.ID) != http.StatusNotFound {
		if time.Now().After(deadline) {
			t.Fatal("session not TTL-evicted within 5s")
		}
		time.Sleep(20 * time.Millisecond)
	}
	stats := s.Stats()
	if stats.SessionsEvicted == 0 || stats.LiveSessions != 0 || stats.SessionBytes != 0 {
		t.Fatalf("post-eviction stats = %+v", stats)
	}
}

func TestSessionCreateWhileDraining503(t *testing.T) {
	s, ts := testServer(t, Config{})
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, resp := tryCreateSession(t, ts.URL, ""); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create while draining = %d, want 503", resp.StatusCode)
	}
}

func TestSessionStats(t *testing.T) {
	s, ts := testServer(t, Config{})
	st := createSession(t, ts.URL, "")
	recs := benchRecords(t, "eqn", 200)
	predictStream(t, ts.URL, st.ID, recs)
	getState(t, ts.URL, st.ID)
	closeSession(t, ts.URL, st.ID)

	stats := s.Stats()
	if stats.SessionsCreated != 1 || stats.SessionsClosed != 1 ||
		stats.StateSaves != 1 || stats.PredictRecords != uint64(len(recs)) {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.PredictP99MS < stats.PredictP50MS {
		t.Errorf("predict quantiles inverted: p50=%v p99=%v", stats.PredictP50MS, stats.PredictP99MS)
	}
}
