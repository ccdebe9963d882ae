package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncBuffer is a goroutine-safe bytes.Buffer: run() writes from the daemon
// goroutine while the test polls for the listening line.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDaemonLifecycle drives a full daemon run in-process: boot on an
// ephemeral port, serve real requests, deliver a real SIGTERM, and assert
// the drain completes within the shutdown timeout with exit code 0.
func TestDaemonLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a full daemon")
	}
	var stdout, stderr syncBuffer
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0", "-workers", "2",
			"-shutdown-timeout", "20s"}, &stdout, &stderr)
	}()

	// The listening line carries the resolved ephemeral address.
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; stderr:\n%s", stderr.String())
		}
		out := stdout.String()
		if i := strings.Index(out, "http://"); i >= 0 {
			if j := strings.IndexAny(out[i:], " \n"); j > 0 {
				base = out[i : i+j]
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	resp, err = http.Post(base+"/v1/runs", "application/json",
		strings.NewReader(`{"app":"KMN","policy":"lru","rate":50}`))
	if err != nil {
		t.Fatalf("POST /v1/runs: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(`"id":"run-`)) {
		t.Fatalf("run response lacks content address: %s", body)
	}

	// Real signal delivery: the daemon must drain and exit 0 well within
	// the shutdown timeout.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d; stderr:\n%s", code, stderr.String())
		}
	case <-time.After(25 * time.Second):
		t.Fatalf("daemon did not exit after SIGTERM; stderr:\n%s", stderr.String())
	}
	logs := stderr.String()
	for _, want := range []string{"shutdown signal, draining", "cache:", "drained cleanly"} {
		if !strings.Contains(logs, want) {
			t.Errorf("shutdown log lacks %q:\n%s", want, logs)
		}
	}
	// After exit the port must be closed.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Errorf("daemon still serving after exit")
	}
}

// TestBadFlags exercises the flag-error path without booting anything.
func TestBadFlags(t *testing.T) {
	var stdout, stderr syncBuffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "flag") {
		t.Errorf("flag error not reported: %s", stderr.String())
	}
}

// TestStalledHeaderDisconnected is the slow-client guard: a client that
// opens a request and stops partway through its header is disconnected once
// readHeaderTimeout elapses, instead of holding its connection forever.
func TestStalledHeaderDisconnected(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the header timeout")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(http.NotFoundHandler())
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A request line and one header field, never the blank line ending the
	// header block.
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: hped\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second))
	_, err = io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("stalled client still connected after %v", time.Since(start))
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the %v header timeout could fire", waited, readHeaderTimeout)
	}
}
