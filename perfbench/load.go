package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpe/internal/cluster"
	"hpe/internal/server"
)

// A target is a freshly started hped, or a coordinator over fresh hped
// backends, listening on loopback. Every pass gets its own, so each pass
// starts with empty caches.
type target struct {
	url     string
	closers []func()
}

func (t *target) close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
}

// listen serves h on an ephemeral loopback port and returns its base URL and
// a function that stops the listener and waits for the serving goroutine.
func listen(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return "http://" + ln.Addr().String(), func() { hs.Close(); <-done }, nil
}

// startHped starts one hped with the given worker count and default queue
// and cache.
func startHped(workers int, wrap func(http.Handler) http.Handler) (string, func(), error) {
	srv := server.New(server.Config{Workers: workers})
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	url, stop, err := listen(h)
	if err != nil {
		srv.Close()
		return "", nil, err
	}
	return url, func() { stop(); srv.Close() }, nil
}

func startServe(workers int) (*target, error) {
	url, stop, err := startHped(workers, nil)
	if err != nil {
		return nil, err
	}
	return &target{url: url, closers: []func(){stop}}, nil
}

// startCluster starts backends one-worker hpeds behind a coordinator. When
// tap is non-nil every backend handler is wrapped to time and count the
// runs dispatched to it.
func startCluster(backends int, tap *backendTap) (*target, error) {
	t := &target{}
	var urls []string
	for b := 0; b < backends; b++ {
		var wrap func(http.Handler) http.Handler
		if tap != nil {
			wrap = tap.wrap(b)
		}
		url, stop, err := startHped(1, wrap)
		if err != nil {
			t.close()
			return nil, err
		}
		t.closers = append(t.closers, stop)
		urls = append(urls, url)
	}
	coord, err := cluster.New(cluster.Config{Backends: urls})
	if err != nil {
		t.close()
		return nil, err
	}
	t.closers = append(t.closers, func() { coord.Close() })
	url, stop, err := listen(coord.Handler())
	if err != nil {
		t.close()
		return nil, err
	}
	t.closers = append(t.closers, stop)
	t.url = url
	return t, nil
}

// reply is what one client saw for one request.
type reply struct {
	Latency time.Duration
	Status  int    // 0 on a transport error
	Source  string // X-Hped-Source
	Digest  string // of the body
	// Body is kept only for errors and cold simulations, so a pass does not
	// hold every body it received.
	Body []byte
	Err  error
}

// driveStream sends stream to url from clients goroutines in a closed loop:
// each client takes the next unsent request only after its previous reply
// has been read. Nothing is retried; a 429 is a failed request. It returns
// the replies in stream order and the wall time from the first send to the
// last reply.
func driveStream(url string, stream []request, clients int, tr *tracer, opBase int64, onSend func(i int, span int)) ([]reply, time.Duration) {
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
	defer client.CloseIdleConnections()
	replies := make([]reply, len(stream))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(stream) {
					return
				}
				sp := tr.begin("client.request", opBase+int64(i), -1)
				if onSend != nil {
					onSend(i, sp)
				}
				replies[i] = post(client, url+"/v1/runs", stream[i].Body)
				tr.end(sp)
			}
		}()
	}
	wg.Wait()
	return replies, time.Since(start)
}

func post(client *http.Client, url string, body []byte) reply {
	t0 := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{Latency: time.Since(t0), Err: err}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{Latency: time.Since(t0), Status: resp.StatusCode,
		Source: resp.Header.Get("X-Hped-Source"), Digest: digest(b), Err: err}
	if r.Status != http.StatusOK || r.Source == "simulate" {
		r.Body = b
	}
	return r
}

// checkReplies verifies every reply against the fixture: status 200 and a
// body byte-identical (by digest) to the one hped produced for that spec
// when the fixture was made. Serve and cluster bodies are checked against
// the same digests, so a cluster body matches the serve body of its run ID.
func checkReplies(stream []request, replies []reply, fx fixture) (failed int, notes []string) {
	for i, r := range replies {
		var why string
		switch {
		case r.Err != nil:
			why = r.Err.Error()
		case r.Status != http.StatusOK:
			why = fmt.Sprintf("status %d: %s", r.Status, strings.TrimSpace(string(r.Body)))
		default:
			want, ok := fx.Serve[stream[i].ID]
			if !ok {
				why = "no expected body"
			} else if r.Digest != want.Body {
				why = fmt.Sprintf("body digest %s, want %s", r.Digest, want.Body)
			}
		}
		if why != "" {
			failed++
			notes = append(notes, fmt.Sprintf("request %d (%s): %s", i, stream[i].ID, why))
		}
	}
	return failed, notes
}

// streamAccesses sums the simulated accesses of the stream's distinct specs:
// a fresh target simulates each exactly once.
func streamAccesses(stream []request, fx fixture) uint64 {
	seen := make(map[string]bool)
	var n uint64
	for _, r := range stream {
		if !seen[r.ID] {
			seen[r.ID] = true
			n += fx.Serve[r.ID].Accesses
		}
	}
	return n
}

// scrape reads a Prometheus text exposition into name{labels} → value.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out, sc.Err()
}

// backendTap wraps each cluster backend's handler to time the POST
// /v1/runs calls the coordinator dispatches to it. Each timed call becomes a
// "cluster.backend" span on the op of the client request that first named
// the run ID.
type backendTap struct {
	tr *tracer
	// inflight covers each wrapped call through its bookkeeping, which can
	// finish after the client has its reply; wait on it before reading.
	inflight   sync.WaitGroup
	mu         sync.Mutex
	opOf       map[string]tapOp // run ID → first client request naming it
	dispatches []atomic.Int64   // per backend
	backendDur map[int64]time.Duration
}

type tapOp struct {
	op   int64
	span int
}

func newBackendTap(tr *tracer, backends int) *backendTap {
	return &backendTap{tr: tr, opOf: map[string]tapOp{},
		dispatches: make([]atomic.Int64, backends), backendDur: map[int64]time.Duration{}}
}

// sent records that op (whose client span is span) names run id.
func (t *backendTap) sent(id string, op int64, span int) {
	t.mu.Lock()
	if _, ok := t.opOf[id]; !ok {
		t.opOf[id] = tapOp{op: op, span: span}
	}
	t.mu.Unlock()
}

func (t *backendTap) wrap(b int) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost || r.URL.Path != "/v1/runs" {
				h.ServeHTTP(w, r)
				return
			}
			t.inflight.Add(1)
			defer t.inflight.Done()
			cw := &captureWriter{ResponseWriter: w}
			t0 := time.Now()
			h.ServeHTTP(cw, r)
			t1 := time.Now()
			t.dispatches[b].Add(1)
			id, err := cw.runID()
			if err != nil {
				return
			}
			t.mu.Lock()
			op, ok := t.opOf[id]
			if ok {
				t.backendDur[op.op] += t1.Sub(t0)
			}
			t.mu.Unlock()
			if ok {
				t.tr.record("cluster.backend", op.op, op.span, t0, t1)
			}
		})
	}
}

// captureWriter keeps the head of the response body, which starts with the
// run ID ({"id":"run-v2-…",…}).
type captureWriter struct {
	http.ResponseWriter
	head []byte
}

func (c *captureWriter) Write(b []byte) (int, error) {
	if len(c.head) < 64 {
		c.head = append(c.head, b[:min(len(b), 64-len(c.head))]...)
	}
	return c.ResponseWriter.Write(b)
}

func (c *captureWriter) runID() (string, error) {
	const prefix = `{"id":"`
	if !bytes.HasPrefix(c.head, []byte(prefix)) {
		return "", errors.New("response does not start with a run id")
	}
	rest := c.head[len(prefix):]
	end := bytes.IndexByte(rest, '"')
	if end < 0 {
		return "", errors.New("run id truncated")
	}
	return string(rest[:end]), nil
}
