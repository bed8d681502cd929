// Command ppmctl is the client for ppmserved.
//
//	ppmctl -server http://127.0.0.1:8100 submit -suite fig6 -workloads troff.ped,eqn -events 2000 -wait
//	ppmctl submit -trace run.ibt2 -suite fig6 -label mytrace
//	ppmctl status j-1
//	ppmctl results j-1 -render -title "Figure 6: misprediction ratios (%), 2K-entry predictors"
//	ppmctl cancel j-1
//	ppmctl session create -predictor PPM-hyb
//	ppmctl session predict -workload eqn -events 1000 s-1
//
// submit posts a job spec (or streams an IBT2 trace file) and prints the
// created job's status JSON; with -wait it follows the NDJSON result stream
// to completion. results replays/follows a job's stream; -render collects
// the cells and prints the same misprediction matrix cmd/experiments
// renders, byte-identical for identical cells.
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
	"strings"

	"repro/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, `usage: ppmctl [-server URL] <command> [flags]

commands:
  submit   submit a suite job (or -trace FILE upload) and print its status
  status   print a job's status JSON
  results  stream a job's NDJSON results (-render for the matrix view)
  cancel   cancel a job
  stats    print the server's /statsz counters
  session  live prediction sessions (create/list/status/close/predict/state/restore)`)
	return 2
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ppmctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	server := fs.String("server", "http://127.0.0.1:8100", "ppmserved base URL")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return usage(stderr)
	}
	c := &client{base: strings.TrimRight(*server, "/")}
	cmd, rest := rest[0], rest[1:]
	switch cmd {
	case "submit":
		return c.submit(rest, stdout, stderr)
	case "status":
		return c.status(rest, stdout, stderr)
	case "results":
		return c.results(rest, stdout, stderr)
	case "cancel":
		return c.cancel(rest, stdout, stderr)
	case "stats":
		return c.stats(stdout, stderr)
	case "session":
		return c.session(rest, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "ppmctl: unknown command %q\n", cmd)
		return usage(stderr)
	}
}

type client struct {
	base string
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "ppmctl:", err)
	return 1
}

// errorBody surfaces the server's {"error": ...} payload.
func errorBody(resp *http.Response) error {
	var body struct {
		Error string `json:"error"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&body)
	if body.Error == "" {
		body.Error = resp.Status
	}
	return fmt.Errorf("server: %s (HTTP %d)", body.Error, resp.StatusCode)
}

func buildSpec(suite, workloads, predictors string, events int) serve.JobSpec {
	spec := serve.JobSpec{Suite: suite, Events: events}
	if workloads != "" {
		spec.Workloads = strings.Split(workloads, ",")
	}
	if predictors != "" {
		spec.Predictors = strings.Split(predictors, ",")
	}
	return spec
}

// postJob submits a suite job spec and decodes the created status.
func (c *client) postJob(spec serve.JobSpec) (serve.JobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return serve.JobStatus{}, err
	}
	resp, err := http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return serve.JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return serve.JobStatus{}, errorBody(resp)
	}
	var st serve.JobStatus
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// stream follows a job's NDJSON results, copying each line to raw (when
// non-nil) and collecting cells; it returns the terminal event.
func (c *client) stream(id string, raw io.Writer) ([]serve.CellResult, serve.Event, error) {
	resp, err := http.Get(c.base + "/v1/jobs/" + id + "/results")
	if err != nil {
		return nil, serve.Event{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, serve.Event{}, errorBody(resp)
	}
	var cells []serve.CellResult
	var done serve.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if raw != nil {
			fmt.Fprintln(raw, sc.Text())
		}
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, serve.Event{}, fmt.Errorf("bad stream line: %w", err)
		}
		switch ev.Type {
		case "cell":
			cells = append(cells, *ev.Cell)
		case "done":
			done = ev
		}
	}
	if err := sc.Err(); err != nil {
		return nil, serve.Event{}, err
	}
	if done.Type != "done" {
		return nil, serve.Event{}, fmt.Errorf("job %s: stream ended without a done event", id)
	}
	return cells, done, nil
}

func (c *client) submit(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ppmctl submit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	suite := fs.String("suite", "", `predictor suite: "fig6" (default) or "fig7"`)
	workloads := fs.String("workloads", "", "comma-separated run names (empty = full suite)")
	predictors := fs.String("predictors", "", "comma-separated predictor labels instead of a suite")
	events := fs.Int("events", 0, "MT dispatch events per run (0 = server default)")
	traceFile := fs.String("trace", "", "upload this IBT2 trace file instead of naming workloads")
	label := fs.String("label", "", "row label for an uploaded trace")
	wait := fs.Bool("wait", false, "follow the result stream to completion")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *traceFile != "" {
		return c.upload(*traceFile, *suite, *predictors, *label, stdout, stderr)
	}
	st, err := c.postJob(buildSpec(*suite, *workloads, *predictors, *events))
	if err != nil {
		return fail(stderr, err)
	}
	printJSON(stdout, st)
	if !*wait {
		return 0
	}
	_, done, err := c.stream(st.ID, stdout)
	if err != nil {
		return fail(stderr, err)
	}
	if done.State != serve.StateDone {
		return fail(stderr, fmt.Errorf("job %s finished %s: %s", st.ID, done.State, done.Error))
	}
	return 0
}

// upload streams a trace file to the server; the response is already the
// job's full NDJSON result.
func (c *client) upload(path, suite, predictors, label string, stdout, stderr io.Writer) int {
	f, err := os.Open(path)
	if err != nil {
		return fail(stderr, err)
	}
	defer f.Close() //lint:closeerr read-only trace input; Close cannot lose data
	url := c.base + "/v1/jobs?suite=" + suite
	for _, p := range strings.Split(predictors, ",") {
		if p != "" {
			url += "&predictor=" + p
		}
	}
	if label != "" {
		url += "&label=" + label
	}
	resp, err := http.Post(url, "application/x-ibt2", f)
	if err != nil {
		return fail(stderr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fail(stderr, errorBody(resp))
	}
	if _, err := io.Copy(stdout, resp.Body); err != nil {
		return fail(stderr, err)
	}
	return 0
}

func (c *client) status(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "usage: ppmctl status <job-id>")
		return 2
	}
	resp, err := http.Get(c.base + "/v1/jobs/" + args[0])
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

func (c *client) results(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ppmctl results", flag.ContinueOnError)
	fs.SetOutput(stderr)
	render := fs.Bool("render", false, "render the cells as a misprediction matrix instead of raw NDJSON")
	title := fs.String("title", "results", "matrix title for -render")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: ppmctl results [-render [-title T]] <job-id>")
		return 2
	}
	raw := io.Writer(stdout)
	if *render {
		raw = nil
	}
	cells, done, err := c.stream(fs.Arg(0), raw)
	if err != nil {
		return fail(stderr, err)
	}
	if *render {
		serve.RenderMatrix(stdout, *title, cells)
	}
	if done.State != serve.StateDone {
		return fail(stderr, fmt.Errorf("job %s finished %s: %s", fs.Arg(0), done.State, done.Error))
	}
	return 0
}

func (c *client) cancel(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "usage: ppmctl cancel <job-id>")
		return 2
	}
	req, err := http.NewRequest(http.MethodDelete, c.base+"/v1/jobs/"+args[0], nil)
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

func (c *client) stats(stdout, stderr io.Writer) int {
	resp, err := http.Get(c.base + "/statsz")
	if err != nil {
		return fail(stderr, err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(stdout, resp.Body)
	return 0
}

func printJSON(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
