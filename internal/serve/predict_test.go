package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/check/leakcheck"
	"repro/internal/race"
)

// TestAppendPredLineMatchesJSON pins appendPredLine to json.Marshal on the
// edge values of every member: zero seq/pc/target/actual (omitted),
// MaxUint64, and predicted false with and without correct.
func TestAppendPredLineMatchesJSON(t *testing.T) {
	var events []PredictEvent
	for _, v := range []uint64{0, 1, 127, 128, 1 << 32, math.MaxUint64} {
		events = append(events,
			PredictEvent{Type: "pred", Seq: v},
			PredictEvent{Type: "pred", PC: v, Actual: v},
			PredictEvent{Type: "pred", Target: v, Predicted: true},
			PredictEvent{Type: "pred", Seq: v, PC: v, Target: v, Actual: v, Predicted: true, Correct: true},
		)
	}
	events = append(events,
		PredictEvent{Type: "pred", Seq: 3, PC: 0x120000040, Actual: 0x140000abc},
		PredictEvent{Type: "pred", Seq: 3, PC: 0x120000040, Actual: 0x140000abc, Correct: true},
		PredictEvent{Type: "pred", Seq: 4, PC: 0x120000040, Target: 0x140000abc, Actual: 0x140000abc, Predicted: true},
	)
	for _, ev := range events {
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		if got := appendPredLine([]byte("prefix"), &ev); string(got) != "prefix"+string(want) {
			t.Errorf("appendPredLine(%+v) = %q, want %q", ev, got[len("prefix"):], want)
		}
	}
}

// TestAppendPredLineCoversEveryField sets every PredictEvent field a pred
// line carries to a non-zero value: a field added to PredictEvent but not
// to appendPredLine shows up in json.Marshal's bytes only, and fails here.
func TestAppendPredLineCoversEveryField(t *testing.T) {
	ev := PredictEvent{Type: "pred"}
	v := reflect.ValueOf(&ev).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch name := v.Type().Field(i).Name; {
		case name == "Type":
		case name == "Session" || name == "Error":
			// Terminal-line fields, never set on a pred line.
		case f.Kind() == reflect.Bool:
			f.SetBool(true)
		case f.CanUint():
			f.SetUint(uint64(1000 + i))
		default:
			t.Fatalf("PredictEvent.%s (%s): teach appendPredLine and this test the new field", name, f.Type())
		}
	}
	want, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendPredLine(nil, &ev); string(got) != string(want)+"\n" {
		t.Errorf("appendPredLine = %q, json.Marshal = %q", got, want)
	}
}

// serveHandler sends one request through h and returns the recorder.
func serveHandler(h http.Handler, method, target, contentType string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// handlerSession opens a session of the given family through h.
func handlerSession(t *testing.T, h http.Handler, family string) SessionStatus {
	t.Helper()
	rec := serveHandler(h, http.MethodPost, "/v1/sessions", "application/json", []byte(`{"predictor":"`+family+`"}`))
	var st SessionStatus
	if rec.Code != http.StatusCreated {
		t.Fatalf("create session: status %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// handlerStatus reads a session's published status through h.
func handlerStatus(t *testing.T, h http.Handler, id string) SessionStatus {
	t.Helper()
	rec := serveHandler(h, http.MethodGet, "/v1/sessions/"+id, "", nil)
	var st SessionStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("session status: %v (status %d)", err, rec.Code)
	}
	return st
}

// TestSessionPredictTruncatedCountsRecords cuts a predict body inside a
// record. The whole records before the cut train the session and stream
// their pred lines, so /statsz must count them, though the request ends in
// an error line; the predict latency sketch observes completed requests
// only.
func TestSessionPredictTruncatedCountsRecords(t *testing.T) {
	s, _ := testServer(t, Config{})
	h := s.Handler()
	id := handlerSession(t, h, "PPM-hyb").ID
	target := "/v1/sessions/" + id + "/predict"
	recs := benchRecords(t, "eqn", 300)
	body := encodeIBT2(t, recs)
	_, first := parsePredict(t, serveHandler(h, http.MethodPost, target, "application/x-ibt2", body).Body.Bytes())

	rec := serveHandler(h, http.MethodPost, target, "application/x-ibt2", body[:len(body)-1])
	last := checkPredictLines(t, rec.Body.Bytes())
	if last.Type != "error" {
		t.Fatalf("truncated predict ended with %+v, want an error line", last)
	}
	trained := uint64(2*len(recs) - 1)
	after := handlerStatus(t, h, id)
	if after.Records != trained {
		t.Fatalf("session trained on %d records, want %d", after.Records, trained)
	}
	if preds := uint64(bytes.Count(rec.Body.Bytes(), []byte("\n")) - 1); preds != after.Lookups-first.Session.Lookups {
		t.Errorf("truncated predict streamed %d pred lines for %d dispatches", preds, after.Lookups-first.Session.Lookups)
	}
	if got := s.Stats().PredictRecords; got != trained {
		t.Errorf("PredictRecords = %d, want %d (every record that trained the session)", got, trained)
	}
	s.met.predictLatency.mu.Lock()
	observed := s.met.predictLatency.p50.Count()
	s.met.predictLatency.mu.Unlock()
	if observed != 1 {
		t.Errorf("predict latency sketch observed %d requests, want 1 (the completed one)", observed)
	}
}

// discardWriter is a ResponseWriter that keeps only the last write, so an
// allocation measurement charges the handler and not a response buffer.
type discardWriter struct {
	header http.Header
	code   int
	last   []byte
}

func (d *discardWriter) Header() http.Header  { return d.header }
func (d *discardWriter) WriteHeader(code int) { d.code = code }
func (d *discardWriter) Write(p []byte) (int, error) {
	d.last = append(d.last[:0], p...)
	return len(p), nil
}

// TestSessionPredictAllocs pins what a warm 512-record predict request
// allocates through Server.Handler: the decoder's window and the pred-line
// buffer come from pools, so the request costs its small per-request
// objects and no per-line encoding.
func TestSessionPredictAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; allocation asserted in the non-race run")
	}
	s, _ := testServer(t, Config{})
	h := s.Handler()
	st := handlerSession(t, h, "PPM-hyb")
	recs := benchRecords(t, "eqn", 5000)[:512]
	body := encodeIBT2(t, recs)
	target := "/v1/sessions/" + st.ID + "/predict"

	w := &discardWriter{header: http.Header{}, last: make([]byte, 0, 1024)}
	predict := func() {
		req := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/x-ibt2")
		w.code = http.StatusOK // the implicit status of a first Write
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK || !bytes.Contains(w.last, []byte(`"type":"done"`)) {
			t.Fatalf("predict: status %d, last write %q", w.code, w.last)
		}
	}
	for range 5 {
		predict() // warm the pools and the predictor's tables
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		predict()
	}
	runtime.ReadMemStats(&after)
	perReq := float64(after.TotalAlloc-before.TotalAlloc) / runs
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("warm 512-record predict request: %.0f B, %.1f allocs", perReq, allocs)
	if perReq > 16<<10 {
		t.Errorf("warm 512-record predict request allocates %.0f B, want at most 16 KiB", perReq)
	}
}

// FuzzSessionPredict posts arbitrary bodies to a live session's predict
// endpoint. A bad header is a 400; anything else is a 200 whose pred lines
// (byte-identical to json.Marshal) end in exactly one done or error line.
// Either way /statsz counts every record that trained the session, a
// valid follow-up chunk then succeeds, and no goroutine outlives the
// server.
func FuzzSessionPredict(f *testing.F) {
	valid := encodeIBT2(f, benchRecords(f, "eqn", 120))
	corrupt := bytes.Clone(valid)
	corrupt[len(corrupt)/2] ^= 0xff
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:len(valid)/2])
	f.Add(corrupt)
	f.Add([]byte("IBT2"))
	f.Add([]byte("IBT2\x07\x00\x00\x00"))
	f.Add([]byte("IBT2\x00" + strings.Repeat("\xff", 11)))
	f.Add([]byte("IBT"))
	f.Add([]byte("NOPE"))
	f.Add([]byte{})
	followRecs := benchRecords(f, "eqn", 100)
	follow := encodeIBT2(f, followRecs)

	f.Fuzz(func(t *testing.T, body []byte) {
		leakcheck.Check(t)
		s := New(Config{})
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = s.Shutdown(ctx)
		})
		h := s.Handler()
		id := handlerSession(t, h, "PPM-hyb").ID
		target := "/v1/sessions/" + id + "/predict"

		rec := serveHandler(h, http.MethodPost, target, "application/x-ibt2", body)
		if len(body) < 4 || string(body[:4]) != "IBT2" {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("bad header: status %d, want 400", rec.Code)
			}
		} else {
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d, want 200", rec.Code)
			}
			checkPredictLines(t, rec.Body.Bytes())
		}
		trained := handlerStatus(t, h, id).Records
		if got := s.Stats().PredictRecords; got != trained {
			t.Fatalf("PredictRecords = %d, session trained on %d", got, trained)
		}

		rec = serveHandler(h, http.MethodPost, target, "application/x-ibt2", follow)
		if rec.Code != http.StatusOK {
			t.Fatalf("follow-up chunk: status %d", rec.Code)
		}
		if done := checkPredictLines(t, rec.Body.Bytes()); done.Type != "done" || done.Session.Records != trained+uint64(len(followRecs)) {
			t.Fatalf("follow-up chunk ended with %+v, want done at %d records", done, trained+uint64(len(followRecs)))
		}
	})
}

// checkPredictLines asserts a 200 predict reply's shape — pred lines, each
// the bytes json.Marshal writes for it, then exactly one done line with a
// session status or one error line with a message — and returns the
// terminal event.
func checkPredictLines(t *testing.T, raw []byte) PredictEvent {
	t.Helper()
	if len(raw) == 0 || raw[len(raw)-1] != '\n' {
		t.Fatalf("reply %q does not end in a newline", raw)
	}
	lines := bytes.Split(raw[:len(raw)-1], []byte("\n"))
	for i, line := range lines {
		var ev PredictEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("line %d %q: %v", i, line, err)
		}
		if i < len(lines)-1 {
			if ev.Type != "pred" {
				t.Fatalf("line %d is %q before the end of the stream", i, ev.Type)
			}
			if want, _ := json.Marshal(ev); !bytes.Equal(line, want) {
				t.Fatalf("pred line %q, json.Marshal writes %q", line, want)
			}
			continue
		}
		switch {
		case ev.Type == "done" && ev.Session != nil:
		case ev.Type == "error" && ev.Error != "":
		default:
			t.Fatalf("stream ends with %q, want a done or error line", line)
		}
		return ev
	}
	t.Fatal("empty reply")
	return PredictEvent{}
}
