package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/check/leakcheck"
	"repro/internal/race"
	"repro/internal/sim"
	"repro/internal/trace"
)

// stalledBody is an upload body that hands out head, then blocks until
// release is closed, then hands out tail: a client that stalls mid-stream.
type stalledBody struct {
	head, tail []byte
	stalled    chan struct{} // closed when the body blocks
	release    chan struct{}
	blocked    bool // touched by Read only
}

func newStalledBody(body []byte, at int) *stalledBody {
	return &stalledBody{head: body[:at], tail: body[at:],
		stalled: make(chan struct{}), release: make(chan struct{})}
}

func (b *stalledBody) Read(p []byte) (int, error) {
	if len(b.head) == 0 && !b.blocked {
		b.blocked = true
		close(b.stalled)
		<-b.release
	}
	src := &b.head
	if len(b.head) == 0 {
		src = &b.tail
	}
	if len(*src) == 0 {
		return 0, io.EOF
	}
	n := copy(p, *src)
	*src = (*src)[n:]
	return n, nil
}

// uploadEvents parses an upload's NDJSON reply into its cells and its
// done line.
func uploadEvents(t *testing.T, raw []byte) ([]CellResult, Event) {
	t.Helper()
	var cells []CellResult
	var done Event
	dec := json.NewDecoder(bytes.NewReader(raw))
	for {
		var ev Event
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("reply %q: %v", raw, err)
		}
		switch {
		case ev.Type == "cell" && ev.Cell != nil && done.Type == "":
			cells = append(cells, *ev.Cell)
		case ev.Type == "done" && done.Type == "":
			done = ev
		default:
			t.Fatalf("unexpected line %+v in reply %q", ev, raw)
		}
	}
	if done.Type != "done" {
		t.Fatalf("reply %q has no done line", raw)
	}
	return cells, done
}

// onlyJob returns the server's one job.
func onlyJob(t *testing.T, s *Server) *job {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.jobs) != 1 {
		t.Fatalf("%d jobs in the table, want 1", len(s.jobs))
	}
	for _, j := range s.jobs { //lint:sorted the table holds one job
		return j
	}
	return nil
}

// TestUploadStopsWithItsJob pins that a streaming upload watches its job's
// context, not only the request's: a DELETE, the job deadline and the
// shutdown drain abort each stop a stalled upload, whose reply then has no
// cell and a done line carrying the same terminal state and error as
// GET /v1/jobs/{id}.
func TestUploadStopsWithItsJob(t *testing.T) {
	body := encodeIBT2(t, benchRecords(t, "gcc.cp", 4000))
	cases := []struct {
		name   string
		cfg    Config
		stop   func(t *testing.T, s *Server, j *job) // ends with the job context done
		state  string
		errMsg string
	}{
		{"delete", Config{}, func(t *testing.T, s *Server, j *job) {
			rec := serveHandler(s.Handler(), http.MethodDelete, "/v1/jobs/"+j.id, "", nil)
			if rec.Code != http.StatusOK {
				t.Fatalf("DELETE: status %d", rec.Code)
			}
		}, StateCancelled, ""},
		{"deadline", Config{JobTimeout: 50 * time.Millisecond}, func(t *testing.T, s *Server, j *job) {
			<-j.ctx.Done()
		}, StateFailed, "job deadline exceeded"},
		{"drain-abort", Config{}, func(t *testing.T, s *Server, j *job) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			t.Cleanup(cancel)
			go func() { _ = s.Shutdown(ctx) }()
			<-j.ctx.Done()
		}, StateCancelled, "shutdown drain timeout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			leakcheck.Check(t)
			s, _ := testServer(t, tc.cfg)
			sb := newStalledBody(body, len(body)/2)
			req := httptest.NewRequest(http.MethodPost, "/v1/jobs?suite=fig6", sb)
			req.Header.Set("Content-Type", "application/x-ibt2")
			rec := httptest.NewRecorder()
			served := make(chan struct{})
			go func() {
				defer close(served)
				s.Handler().ServeHTTP(rec, req)
			}()
			<-sb.stalled
			j := onlyJob(t, s)
			tc.stop(t, s, j)
			close(sb.release)
			<-served

			if rec.Code != http.StatusOK {
				t.Fatalf("status %d (%s), want 200 with a done line", rec.Code, rec.Body.Bytes())
			}
			cells, done := uploadEvents(t, rec.Body.Bytes())
			if len(cells) != 0 {
				t.Errorf("stopped upload replied with %d cells", len(cells))
			}
			if done.State != tc.state || done.Error != tc.errMsg {
				t.Errorf("done line %q/%q, want %q/%q", done.State, done.Error, tc.state, tc.errMsg)
			}
			if st := j.status(); st.State != done.State || st.Error != done.Error {
				t.Errorf("job status %q/%q, reply said %q/%q", st.State, st.Error, done.State, done.Error)
			}
		})
	}
}

// TestUploadAllocs pins what a warm fig6 upload of a paper-scale run
// allocates through Server.Handler: the decode ring and the reader are
// kept between uploads, so an upload costs its seven fresh predictors and
// little else. The bound is what the sequential single-block engine
// allocated. The ring's lanes must total one BlockCap block, the decode
// state a single reused block cost.
func TestUploadAllocs(t *testing.T) {
	if sim.RingSlots*sim.SlotCap != trace.BlockCap {
		t.Errorf("decode ring holds %d slots of %d records, want one %d-record block in all",
			sim.RingSlots, sim.SlotCap, trace.BlockCap)
	}
	if race.Enabled {
		t.Skip("race instrumentation allocates; allocation asserted in the non-race run")
	}
	s, _ := testServer(t, Config{})
	h := s.Handler()
	recs, _ := bench.Sized(20000)[0].Records()
	body := encodeIBT2(t, recs)
	upload := func() {
		rec := serveHandler(h, http.MethodPost, "/v1/jobs?suite=fig6", "application/x-ibt2", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("upload: status %d", rec.Code)
		}
		if cells, done := uploadEvents(t, rec.Body.Bytes()); len(cells) != 1 || cells[0].Records != uint64(len(recs)) || done.State != StateDone {
			t.Fatalf("upload of %d records replied %+v, %+v", len(recs), cells, done)
		}
	}
	for range 3 {
		upload() // keep a ring and a reader
	}
	// The median of single uploads: a GC that drops the pooled reader
	// shows in one sample, not in the figure.
	per := make([]uint64, 9)
	var before, after runtime.MemStats
	for i := range per {
		runtime.ReadMemStats(&before)
		upload()
		runtime.ReadMemStats(&after)
		per[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(per)
	got := per[len(per)/2]
	t.Logf("warm fig6 upload of %d records: %d B", len(recs), got)
	const limit = 682 << 10
	if got > limit {
		t.Errorf("warm fig6 upload of %d records allocates %d B, want at most %d", len(recs), got, limit)
	}
}

// decodedRecords is what a body decodes to: the whole records before the
// stream ends, and the error that ended it (nil at a clean EOF).
func decodedRecords(body []byte) (uint64, error) {
	r, err := trace.NewReader(bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	for {
		if _, err := r.Read(); err == io.EOF {
			return r.Count(), nil
		} else if err != nil {
			return r.Count(), err
		}
	}
}

// FuzzUpload posts arbitrary bodies to the fig6 upload endpoint, which
// streams each through one goroutine per predictor. A body that decodes
// cleanly is a 200 whose one cell counts every record it decodes to and
// whose done line says done; anything else is a 400 or 413 naming the
// error. Either way no goroutine outlives the server, and a valid upload
// then still succeeds.
func FuzzUpload(f *testing.F) {
	recs := benchRecords(f, "eqn", 120)
	valid := encodeIBT2(f, recs)
	corrupt := bytes.Clone(valid)
	corrupt[len(corrupt)/2] ^= 0xff
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:len(valid)/2])
	f.Add(corrupt)
	f.Add(encodeIBT2(f, nil))
	f.Add([]byte("IBT2\x07\x00\x00\x00"))
	f.Add([]byte("IBT2\x00" + strings.Repeat("\xff", 11)))
	f.Add([]byte("IBT"))
	f.Add([]byte("NOPE"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		leakcheck.Check(t)
		s := New(Config{})
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = s.Shutdown(ctx)
		})
		h := s.Handler()
		const target = "/v1/jobs?suite=fig6"

		n, decodeErr := decodedRecords(body)
		rec := serveHandler(h, http.MethodPost, target, "application/x-ibt2", body)
		switch rec.Code {
		case http.StatusOK:
			if decodeErr != nil {
				t.Fatalf("200 for a body that fails to decode after %d records: %v", n, decodeErr)
			}
			cells, done := uploadEvents(t, rec.Body.Bytes())
			if len(cells) != 1 || cells[0].Records != n || done.State != StateDone {
				t.Fatalf("reply %+v, %+v; want one cell of %d records, done", cells, done, n)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			var e map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] == "" {
				t.Fatalf("status %d with body %q, want a JSON error", rec.Code, rec.Body.Bytes())
			}
			if decodeErr == nil {
				t.Fatalf("status %d (%s) for a body that decodes to %d records", rec.Code, e["error"], n)
			}
			if errors.Is(decodeErr, trace.ErrTruncated) && !strings.Contains(e["error"], "truncated") {
				t.Fatalf("truncated body rejected as %q", e["error"])
			}
		default:
			t.Fatalf("status %d (%s), want 200 or a 4xx", rec.Code, rec.Body.Bytes())
		}

		rec = serveHandler(h, http.MethodPost, target, "application/x-ibt2", valid)
		if rec.Code != http.StatusOK {
			t.Fatalf("follow-up upload: status %d", rec.Code)
		}
		if cells, _ := uploadEvents(t, rec.Body.Bytes()); len(cells) != 1 || cells[0].Records != uint64(len(recs)) {
			t.Fatalf("follow-up upload replied %+v, want %d records", cells, len(recs))
		}
	})
}
