package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/serve"
	"repro/internal/trace"
)

// testBackend runs a real serve.Server for the client to talk to.
func testBackend(t *testing.T) string {
	t.Helper()
	s := serve.New(serve.Config{MaxConcurrent: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
	})
	return ts.URL
}

func ppmctl(t *testing.T, url string, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"-server", url}, args...), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestSubmitWaitStatusResultsCancel(t *testing.T) {
	url := testBackend(t)

	code, out, errOut := ppmctl(t, url,
		"submit", "-suite", "fig6", "-workloads", "troff.ped,eqn", "-events", "400", "-wait")
	if code != 0 {
		t.Fatalf("submit -wait exit %d: %s", code, errOut)
	}
	// First line is the created status; the rest is the NDJSON stream.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var st serve.JobStatus
	if err := json.Unmarshal([]byte(lines[0]), &st); err != nil {
		t.Fatalf("first line not a status: %v", err)
	}
	if len(lines) != 1+2+1 { // status + two cells + done
		t.Fatalf("got %d output lines, want 4:\n%s", len(lines), out)
	}

	code, out, _ = ppmctl(t, url, "status", st.ID)
	if code != 0 || !strings.Contains(out, `"state":"done"`) {
		t.Fatalf("status exit %d out %q", code, out)
	}

	code, out, _ = ppmctl(t, url, "results", "-render", "-title", "smoke", st.ID)
	if code != 0 {
		t.Fatalf("results -render exit %d", code)
	}
	if !strings.Contains(out, "smoke") || !strings.Contains(out, "troff.ped") || !strings.Contains(out, "MEAN") {
		t.Errorf("rendered matrix missing expected rows:\n%s", out)
	}

	if code, _, _ = ppmctl(t, url, "cancel", st.ID); code != 0 {
		t.Errorf("cancel of finished job exit %d, want 0 (idempotent)", code)
	}
	if code, out, _ = ppmctl(t, url, "stats"); code != 0 || !strings.Contains(out, "jobs_completed") {
		t.Errorf("stats exit %d out %q", code, out)
	}
}

func TestUploadTraceFile(t *testing.T) {
	url := testBackend(t)

	cfg, _ := bench.ByName("eqn")
	cfg.Events = 300
	recs, _ := cfg.Records()
	path := filepath.Join(t.TempDir(), "eqn.ibt2")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f)
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
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	code, out, errOut := ppmctl(t, url,
		"submit", "-trace", path, "-suite", "fig7", "-label", "eqn-upload")
	if code != 0 {
		t.Fatalf("upload exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, `"run":"eqn-upload"`) || !strings.Contains(out, `"type":"done"`) {
		t.Errorf("upload stream missing cell/done:\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	url := testBackend(t)
	for _, cmd := range []string{"nonsense", "bench"} {
		if code, _, errOut := ppmctl(t, url, cmd); code != 2 || !strings.Contains(errOut, "unknown command") {
			t.Errorf("%s: exit %d err %q, want 2 and unknown command", cmd, code, errOut)
		}
	}
	if code, _, _ := ppmctl(t, url); code != 2 {
		t.Errorf("no command exit %d, want 2", code)
	}
	if code, _, errOut := ppmctl(t, url, "status", "j-404"); code != 1 || !strings.Contains(errOut, "no such job") {
		t.Errorf("missing job: exit %d err %q", code, errOut)
	}
	if code, _, errOut := ppmctl(t, url, "submit", "-suite", "fig99"); code != 1 || !strings.Contains(errOut, "unknown suite") {
		t.Errorf("bad suite: exit %d err %q", code, errOut)
	}
	if code, _, _ := ppmctl(t, "http://127.0.0.1:1", "stats"); code != 1 {
		t.Errorf("unreachable server exit %d, want 1", code)
	}
}
