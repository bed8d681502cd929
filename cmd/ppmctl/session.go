package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"

	"repro/internal/bench"
	"repro/internal/serve"
	"repro/internal/trace"
)

// session dispatches the live-session subcommands. A session holds one
// predictor's mutable state open on the server; predict streams records up
// and predictions back while the tables train in place, and state
// download/upload moves the serialized predictor between sessions (or
// processes) with byte-identical continuation.
func (c *client) session(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, `usage: ppmctl session <create|list|status|close|predict|state|restore> ...

  create  [-predictor NAME]                  create a live session
  list                                       list live sessions
  status  <id>                               print one session's status JSON
  close   <id>                               close a session
  predict [-trace FILE | -workload RUN -events N] <id>
                                             stream records, print NDJSON predictions
  state   <id> [-o FILE]                     download the state snapshot
  restore <id> <snapshot-file>               warm-start the session from a snapshot`)
		return 2
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "create":
		return c.sessionCreate(rest, stdout, stderr)
	case "list":
		return c.getJSON("/v1/sessions", stdout, stderr)
	case "status":
		if len(rest) != 1 {
			fmt.Fprintln(stderr, "usage: ppmctl session status <id>")
			return 2
		}
		return c.getJSON("/v1/sessions/"+rest[0], stdout, stderr)
	case "close":
		return c.sessionClose(rest, stdout, stderr)
	case "predict":
		return c.sessionPredict(rest, stdout, stderr)
	case "state":
		return c.sessionState(rest, stdout, stderr)
	case "restore":
		return c.sessionRestore(rest, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "ppmctl session: unknown subcommand %q\n", sub)
		return 2
	}
}

func (c *client) getJSON(path string, stdout, stderr io.Writer) int {
	resp, err := http.Get(c.base + path)
	if err != nil {
		return fail(stderr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fail(stderr, errorBody(resp))
	}
	_, _ = io.Copy(stdout, resp.Body)
	return 0
}

func (c *client) sessionCreate(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ppmctl session create", flag.ContinueOnError)
	fs.SetOutput(stderr)
	predictor := fs.String("predictor", "", "bench predictor label (empty = server default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	st, err := c.createSession(*predictor)
	if err != nil {
		return fail(stderr, err)
	}
	printJSON(stdout, st)
	return 0
}

// createSession posts a session spec and decodes the created status.
func (c *client) createSession(predictor string) (serve.SessionStatus, error) {
	body, err := json.Marshal(serve.SessionSpec{Predictor: predictor})
	if err != nil {
		return serve.SessionStatus{}, err
	}
	resp, err := http.Post(c.base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return serve.SessionStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return serve.SessionStatus{}, errorBody(resp)
	}
	var st serve.SessionStatus
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func (c *client) sessionClose(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "usage: ppmctl session close <id>")
		return 2
	}
	req, err := http.NewRequest(http.MethodDelete, c.base+"/v1/sessions/"+args[0], nil)
	if err != nil {
		return fail(stderr, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fail(stderr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fail(stderr, errorBody(resp))
	}
	_, _ = io.Copy(stdout, resp.Body)
	return 0
}

// encodeWorkload generates a bench run's records client-side and encodes
// them as an IBT2 body, so a predict stream needs no trace file on disk.
func encodeWorkload(name string, events int) ([]byte, error) {
	cfg, ok := bench.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if events > 0 {
		cfg.Events = events
	}
	recs, _ := cfg.Records()
	return trace.Encode(recs)
}

func (c *client) sessionPredict(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ppmctl session predict", flag.ContinueOnError)
	fs.SetOutput(stderr)
	traceFile := fs.String("trace", "", "stream this IBT2 trace file")
	workload := fs.String("workload", "", "generate and stream this bench run instead of a file")
	events := fs.Int("events", 0, "MT dispatch events for -workload (0 = run default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 || (*traceFile == "") == (*workload == "") {
		fmt.Fprintln(stderr, "usage: ppmctl session predict (-trace FILE | -workload RUN [-events N]) <id>")
		return 2
	}
	var body io.Reader
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			return fail(stderr, err)
		}
		defer f.Close() //lint:closeerr read-only trace input; Close cannot lose data
		body = f
	} else {
		data, err := encodeWorkload(*workload, *events)
		if err != nil {
			return fail(stderr, err)
		}
		body = bytes.NewReader(data)
	}

	resp, err := http.Post(c.base+"/v1/sessions/"+fs.Arg(0)+"/predict", "application/x-ibt2", body)
	if err != nil {
		return fail(stderr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fail(stderr, errorBody(resp))
	}
	// Relay the NDJSON stream verbatim, but fail on a typed error line so
	// scripts can trust the exit code.
	code := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fmt.Fprintln(stdout, sc.Text())
		var ev serve.PredictEvent
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Type == "error" {
			fmt.Fprintln(stderr, "ppmctl: predict stream error:", ev.Error)
			code = 1
		}
	}
	if err := sc.Err(); err != nil {
		return fail(stderr, err)
	}
	return code
}

func (c *client) sessionState(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ppmctl session state", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "write the snapshot to this file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: ppmctl session state [-o FILE] <id>")
		return 2
	}
	resp, err := http.Get(c.base + "/v1/sessions/" + fs.Arg(0) + "/state")
	if err != nil {
		return fail(stderr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fail(stderr, errorBody(resp))
	}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fail(stderr, err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "ppmctl:", err)
			}
		}()
		w = f
	}
	if _, err := io.Copy(w, resp.Body); err != nil {
		return fail(stderr, err)
	}
	return 0
}

func (c *client) sessionRestore(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: ppmctl session restore <id> <snapshot-file>")
		return 2
	}
	data, err := os.ReadFile(args[1])
	if err != nil {
		return fail(stderr, err)
	}
	req, err := http.NewRequest(http.MethodPut, c.base+"/v1/sessions/"+args[0]+"/state",
		bytes.NewReader(data))
	if err != nil {
		return fail(stderr, err)
	}
	req.Header.Set("Content-Type", "application/x-ppm-state")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fail(stderr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fail(stderr, errorBody(resp))
	}
	_, _ = io.Copy(stdout, resp.Body)
	return 0
}
