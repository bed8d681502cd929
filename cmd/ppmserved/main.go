// Command ppmserved runs the prediction-simulation service (internal/serve)
// as a long-lived HTTP daemon.
//
//	ppmserved -addr :8100
//
// Jobs are submitted and streamed per the internal/serve HTTP surface (see
// README.md "Serving"); cmd/ppmctl is the matching client. The daemon wires
// in the operational endpoints — /healthz, /readyz, /statsz and
// /debug/vars (the serve stats published under the "ppmserved" expvar
// name) — and turns SIGINT/SIGTERM into a graceful drain: readiness flips
// to 503 immediately, in-flight jobs run to completion, and after
// -drain-timeout any stragglers are aborted and the process exits non-zero
// so supervisors can tell a clean drain from a forced one.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr, nil))
}

// publishOnce guards the process-global expvar registry, which panics on a
// duplicate name; tests call run more than once per process.
var publishOnce sync.Once

// errDrainElapsed is the cause carried by the drain context's deadline, so
// context.Cause names the drain budget rather than a bare DeadlineExceeded.
var errDrainElapsed = errors.New("ppmserved: drain timeout elapsed")

// run starts the daemon and blocks until a shutdown signal or listener
// failure. ready, when non-nil, receives the bound address once the server
// is listening (a test seam; main passes nil).
func run(args []string, stderr io.Writer, ready chan<- net.Addr) int {
	fs := flag.NewFlagSet("ppmserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8100", "listen address")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "bound on draining in-flight jobs at shutdown")
		maxConc      = fs.Int("max-concurrent", 0, "simulation cells in flight across all jobs (0 = GOMAXPROCS)")
		maxActive    = fs.Int("max-active", 0, "active jobs before submissions are shed with 429 (0 = default)")
		maxJobs      = fs.Int("max-jobs", 0, "session-table bound, finished jobs included (0 = default)")
		jobTTL       = fs.Duration("job-ttl", 0, "retention of finished jobs and their results (0 = default)")
		jobTimeout   = fs.Duration("job-timeout", 0, "per-job deadline (0 = default)")
		cacheMB      = fs.Int("cache-mb", 0, "trace cache budget in MiB (0 = default)")
		maxEvents    = fs.Int("max-events", 0, "cap on per-run dispatch events in a job spec (0 = default)")
		maxUploadMB  = fs.Int64("max-upload-mb", 0, "cap on an uploaded trace body in MiB (0 = default)")
		maxSessions  = fs.Int("max-sessions", 0, "live prediction sessions held at once (0 = default)")
		sessionMB    = fs.Int64("session-mb", 0, "memory budget for live session state in MiB (0 = default)")
		sessionTTL   = fs.Duration("session-ttl", 0, "idle live-session retention (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "ppmserved:", err)
		return 1
	}
	srv := serve.New(serve.Config{
		MaxConcurrent:  *maxConc,
		MaxActive:      *maxActive,
		MaxJobs:        *maxJobs,
		JobTTL:         *jobTTL,
		JobTimeout:     *jobTimeout,
		CacheBytes:     int64(*cacheMB) << 20,
		MaxEvents:      *maxEvents,
		MaxUploadBytes: *maxUploadMB << 20,
		MaxSessions:    *maxSessions,
		SessionBytes:   *sessionMB << 20,
		SessionTTL:     *sessionTTL,
	})
	publishOnce.Do(func() { expvar.Publish("ppmserved", srv.Vars()) })

	hs := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(stderr, "ppmserved: listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	// Bounded by the listener: Serve returns when Shutdown/Close closes ln, and the send is buffered
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "ppmserved:", err)
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of re-draining

	fmt.Fprintf(stderr, "ppmserved: draining (timeout %s)\n", *drainTimeout)
	// Carry an explicit cause so anything inspecting context.Cause on the
	// drain context sees the drain budget, not a bare DeadlineExceeded.
	dctx, cancel := context.WithTimeoutCause(context.Background(), *drainTimeout, errDrainElapsed)
	defer cancel()
	code := 0
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintln(stderr, "ppmserved: drain timed out; in-flight jobs aborted")
		code = 1
	}
	// Jobs are terminal, so result streams have emitted their done events;
	// now close the listener and let connections wind down.
	hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer hcancel()
	if err := hs.Shutdown(hctx); err != nil {
		_ = hs.Close() // best effort; the graceful path already failed
	}
	fmt.Fprintln(stderr, "ppmserved: stopped")
	return code
}
