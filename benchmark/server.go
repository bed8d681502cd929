package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/serve"
)

// loopback is the prediction service, serve.New(...).Handler(), on a
// loopback listener in this process, with an HTTP client that opens at
// most conns connections to it.
type loopback struct {
	srv    *serve.Server
	hs     *http.Server
	client *http.Client
	base   string
	served sync.WaitGroup
}

// startLoopback boots the service with its default configuration and
// waits until it answers /readyz.
func startLoopback(conns int) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	lb := &loopback{
		srv:  serve.New(serve.Config{}),
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	lb.hs = &http.Server{Handler: lb.srv.Handler()}
	lb.served.Add(1)
	go func() {
		defer lb.served.Done()
		_ = lb.hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	var buf bytes.Buffer
	if code, err := lb.do(http.MethodGet, "/readyz", "", nil, &buf); err != nil || code != http.StatusOK {
		return nil, errors.Join(fmt.Errorf("service not ready: status %d: %v", code, err), lb.close())
	}
	return lb, nil
}

// do sends one request and reads the whole response body into buf.
func (lb *loopback) do(method, path, contentType string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(method, lb.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := lb.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, fmt.Errorf("reading %s %s response: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

// close drains the service, stops the listener and waits for it to exit.
func (lb *loopback) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	lb.client.CloseIdleConnections()
	err := lb.hs.Shutdown(ctx)
	lb.served.Wait()
	return errors.Join(err, lb.srv.Shutdown(ctx))
}

// statusError describes a reply that was not the expected status.
func statusError(what string, code int, body *bytes.Buffer) error {
	msg := body.String()
	if len(msg) > 200 {
		msg = msg[:200]
	}
	return fmt.Errorf("%s: status %d: %s", what, code, bytes.TrimSpace([]byte(msg)))
}
