package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hpe"
	"hpe/internal/experiments"
	"hpe/internal/runspec"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

// --- catalog, health, validation -----------------------------------------

func TestCatalogEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	code, body := get(t, ts, "/v1/policies")
	if code != http.StatusOK {
		t.Fatalf("/v1/policies: %d: %s", code, body)
	}
	var pols []policyJSON
	if err := json.Unmarshal(body, &pols); err != nil {
		t.Fatalf("decode policies: %v", err)
	}
	found := false
	for _, p := range pols {
		if p.Name == "hpe" {
			found = true
		}
	}
	if !found {
		t.Errorf("policy registry listing lacks hpe: %s", body)
	}

	code, body = get(t, ts, "/v1/apps")
	if code != http.StatusOK {
		t.Fatalf("/v1/apps: %d: %s", code, body)
	}
	var apps []appJSON
	if err := json.Unmarshal(body, &apps); err != nil {
		t.Fatalf("decode apps: %v", err)
	}
	if len(apps) != 23 {
		t.Errorf("catalog lists %d apps, want the paper's 23", len(apps))
	}

	code, body = get(t, ts, "/v1/scenarios")
	if code != http.StatusOK {
		t.Fatalf("/v1/scenarios: %d: %s", code, body)
	}
	var scens []hpe.Scenario
	if err := json.Unmarshal(body, &scens); err != nil {
		t.Fatalf("decode scenarios: %v", err)
	}
	if len(scens) == 0 {
		t.Error("scenario catalog is empty")
	}
	for _, sc := range scens {
		if sc.Name == "" || (sc.Phases == "" && sc.Tenants == "") {
			t.Errorf("malformed scenario preset: %+v", sc)
		}
	}

	code, body = get(t, ts, "/healthz")
	if code != http.StatusOK || !bytes.Contains(body, []byte("ok")) {
		t.Errorf("/healthz: %d: %s", code, body)
	}
}

func TestSubmitRunRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct{ name, body string }{
		{"unknown app", `{"app":"NOPE","policy":"lru","rate":50}`},
		{"unknown policy", `{"app":"HSD","policy":"magic","rate":50}`},
		{"rate out of range", `{"app":"HSD","policy":"lru","rate":0}`},
		{"unknown field", `{"app":"HSD","policy":"lru","rate":50,"turbo":true}`},
		{"legacy nested options", `{"app":"HSD","policy":"lru","rate":50,"options":{"scale":4}}`},
		{"not json", `not json`},
		{"scale out of range", `{"app":"HSD","policy":"lru","rate":50,"scale":1000}`},
	}
	for _, tc := range cases {
		code, _, body := postRun(t, ts.Client(), ts.URL, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, code, body)
		}
	}

	resp, err := ts.Client().Post(ts.URL+"/v1/suite", "application/json",
		strings.NewReader(`{"ids":["fig99"]}`))
	if err != nil {
		t.Fatalf("POST /v1/suite: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown experiment: status %d, want 400", resp.StatusCode)
	}
}

// TestSpecIDAgreesAcrossLayers is the cross-layer identity contract: the
// same simulation described three ways — hpesim CLI flags, a POST /v1/runs
// wire body with defaults omitted, and the experiment suite's internal
// enumeration — lands on one Spec.ID(), so all three layers share one cache
// entry. This is the omitted-vs-default hazard test: the wire body spells
// nothing beyond (app, policy, rate), the CLI spells every default
// explicitly, and the suite builds the spec programmatically.
func TestSpecIDAgreesAcrossLayers(t *testing.T) {
	// CLI path: hpesim's flag surface, defaults spelled out explicitly.
	fs := flag.NewFlagSet("hpesim", flag.ContinueOnError)
	spec := runspec.BindFlags(fs)
	if err := fs.Parse([]string{
		"-app", "kmn", "-policy", "LRU", "-rate", "50",
		"-seed", "1", "-design", "l2tlb", "-channels", "1", "-scale", "1",
	}); err != nil {
		t.Fatalf("parse flags: %v", err)
	}
	cliID := spec().ID()

	// Server wire path: the same run with every default omitted.
	sp, err := runspec.Decode(strings.NewReader(`{"app":"KMN","policy":"lru","rate":50}`))
	if err != nil {
		t.Fatalf("decode wire body: %v", err)
	}
	serverID := sp.ID()

	// Suite path: the suite's own spec for (KMN, lru, 50), observed as the
	// content address Fig. 11's plan hands the Runner. Options.Seed 0 is the
	// suite's historical seeding offset away from the canonical default seed
	// 1. The stand-in results are all equal, which Fig. 11 renders happily.
	var suiteID string
	suite := experiments.NewSuite(experiments.Options{
		Quick: true,
		Runner: func(_ context.Context, sp runspec.Spec, id string) (hpe.Result, error) {
			if sp.App == "KMN" && sp.Policy == "lru" && sp.Rate == 50 {
				suiteID = id
			}
			return hpe.Result{IPC: 1, Cycles: 1}, nil
		},
	})
	if _, err := suite.Reports([]string{"fig11"}); err != nil {
		t.Fatal(err)
	}

	if cliID != serverID || serverID != suiteID {
		t.Errorf("layers disagree on the run identity:\n cli    %s\n server %s\n suite  %s",
			cliID, serverID, suiteID)
	}
}

func TestGetRunStatus(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	srv, ts := newTestServer(t, Config{Workers: 2})

	code, body := get(t, ts, "/v1/runs/run-doesnotexist")
	if code != http.StatusNotFound {
		t.Fatalf("unknown id: %d: %s", code, body)
	}

	id := runspec.Spec{App: "BFS", Policy: "hpe", Rate: 50, Scale: 4}.ID()
	done := make(chan struct{})
	go func() {
		defer close(done)
		postRun(t, ts.Client(), ts.URL, slowRunBody)
	}()
	waitInflight(t, srv, id)

	code, body = get(t, ts, "/v1/runs/"+id)
	if code != http.StatusAccepted {
		t.Errorf("in-flight id: %d, want 202: %s", code, body)
	}
	var status struct {
		ID      string `json:"id"`
		Status  string `json:"status"`
		Waiters int    `json:"waiters"`
	}
	if err := json.Unmarshal(body, &status); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	if status.Status != "running" || status.ID != id || status.Waiters < 1 {
		t.Errorf("status body: %+v", status)
	}
	<-done

	code, body = get(t, ts, "/v1/runs/"+id)
	if code != http.StatusOK {
		t.Errorf("completed id: %d, want 200 from cache: %s", code, body)
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatalf("decode run response: %v", err)
	}
	if rr.ID != id || rr.Result.Accesses == 0 {
		t.Errorf("run response lacks results: id=%s accesses=%d", rr.ID, rr.Result.Accesses)
	}
}

// waitInflight blocks until id's computation is registered with the
// coalescer (i.e. a leader is inside serveComputed).
func waitInflight(t *testing.T, srv *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, running := srv.co.Inflight(id); running {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("computation never became visible to the coalescer")
		}
		time.Sleep(time.Millisecond)
	}
}

// --- cancellation ---------------------------------------------------------

// simEventsTotal sums the merged probe event counts across kinds.
func (l *local) simEventsTotal() uint64 {
	l.simMu.Lock()
	defer l.simMu.Unlock()
	var total uint64
	for _, n := range l.simEvents {
		total += n
	}
	return total
}

// TestCancelledRequestStopsSimulation is the disconnect contract: when the
// only client waiting on a run goes away, the simulation's engine stops at
// the next cancellation poll instead of running to completion. Observed via
// the probe event counts ceasing: the cancelled run merges strictly fewer
// simulator events than the same request later run to completion, no
// completion is ever recorded for it, and its partial result is never cached.
func TestCancelledRequestStopsSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	srv, ts := newTestServer(t, Config{Workers: 2})

	id := runspec.Spec{App: "BFS", Policy: "hpe", Rate: 50, Scale: 16}.ID()
	body := `{"app":"BFS","policy":"hpe","rate":50,"scale":16}`

	ctx, cancel := context.WithCancel(context.Background())
	httpReq, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/runs", strings.NewReader(body))
	if err != nil {
		t.Fatalf("build request: %v", err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(httpReq)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	waitInflight(t, srv, id)
	// Cancel only once the leader holds a worker slot (admission happens
	// inside the coalescer's computation, just after inflight): a client
	// that leaves while the computation is still queued abandons it before
	// it starts, and an unstarted run is never counted as cancelled.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if started, _, _, _ := srv.met.runsSnapshot(); started == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run never started")
		}
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("client Do succeeded despite cancelled context")
	}

	// The leader must classify the run as cancelled, not completed.
	deadline := time.Now().Add(60 * time.Second)
	for {
		_, completed, cancelled, failed := srv.met.runsSnapshot()
		if cancelled == 1 {
			break
		}
		if completed != 0 || failed != 0 {
			t.Fatalf("run finished as completed=%d failed=%d instead of cancelled", completed, failed)
		}
		if time.Now().After(deadline) {
			t.Fatal("run never recorded as cancelled")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Probe events have ceased: totals are stable once the engine stopped.
	partial := srv.x.(*local).simEventsTotal()
	time.Sleep(200 * time.Millisecond)
	if after := srv.x.(*local).simEventsTotal(); after != partial {
		t.Errorf("probe events still flowing after cancellation: %d -> %d", partial, after)
	}

	// The partial result must not be cached or still in flight.
	if code, b := get(t, ts, "/v1/runs/"+id); code != http.StatusNotFound {
		t.Errorf("cancelled run served from cache: %d: %s", code, b)
	}

	// The same request run to completion merges strictly more events —
	// proof the cancelled engine stopped mid-flight.
	code, _, b := postRun(t, ts.Client(), ts.URL, body)
	if code != http.StatusOK {
		t.Fatalf("re-run after cancel: %d: %s", code, b)
	}
	full := srv.x.(*local).simEventsTotal() - partial
	if full <= partial {
		t.Errorf("cancelled run merged %d events, full run %d — cancellation did not stop the engine early",
			partial, full)
	}
}

// --- backpressure ---------------------------------------------------------

func TestQueueFullRejectsWith429(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: -1}) // queue depth 0

	id := runspec.Spec{App: "BFS", Policy: "hpe", Rate: 50, Scale: 4}.ID()
	done := make(chan struct{})
	go func() {
		defer close(done)
		postRun(t, ts.Client(), ts.URL, slowRunBody)
	}()
	waitInflight(t, srv, id)
	// Wait until the slow run actually holds the only worker slot (admission
	// happens inside the coalescer's computation, just after inflight).
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, running := srv.x.(*local).adm.Depths(); running == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow run never occupied the worker slot")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := ts.Client().Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"app":"KMN","policy":"lru","rate":50}`))
	if err != nil {
		t.Fatalf("POST while saturated: %v", err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("saturated server: status %d, want 429: %s", resp.StatusCode, b)
	}
	if eb, ok := DecodeError(b); !ok || eb.Code != ErrQueueFull {
		t.Errorf("429 envelope = %+v (ok=%t), want code %q", eb, ok, ErrQueueFull)
	}
	assertRetryAfter(t, resp.Header)
	if srv.x.(*local).adm.Rejected() == 0 {
		t.Errorf("rejection not counted")
	}
	<-done
}

// --- drain ----------------------------------------------------------------

func TestDrainRefusesNewWork(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	srv.Drain()

	if code, body := get(t, ts, "/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("draining healthz: %d: %s", code, body)
	}
	code, _, body := postRun(t, ts.Client(), ts.URL, `{"app":"KMN","policy":"lru","rate":50}`)
	if code != http.StatusServiceUnavailable {
		t.Errorf("draining submit: %d, want 503: %s", code, body)
	}
	summary := srv.Close()
	if !strings.Contains(summary, "cache:") {
		t.Errorf("Close summary lacks cache stats: %q", summary)
	}
}

// --- suite sweeps ---------------------------------------------------------

func TestSuiteEndpointCachesAcrossWorkerHints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	_, ts := newTestServer(t, Config{Workers: 4})
	post := func(body string) (int, string, []byte) { return postSuite(t, ts, body) }

	code, source, first := post(`{"ids":["table2"],"quick":true,"workers":1}`)
	if code != http.StatusOK || source != "simulate" {
		t.Fatalf("first sweep: %d %q: %s", code, source, first)
	}
	var sr suiteResponse
	if err := json.Unmarshal(first, &sr); err != nil {
		t.Fatalf("decode sweep: %v", err)
	}
	if len(sr.Reports) != 1 || sr.Reports[0].ID != "table2" || len(sr.Reports[0].Metrics) == 0 {
		t.Errorf("sweep reports: %+v", sr.Reports)
	}
	if sr.Request.Workers != 0 {
		t.Errorf("workers hint leaked into the cached body: %+v", sr.Request)
	}

	// Same sweep with a different parallelism hint: same content address,
	// so it must come from the cache, byte-identical.
	code, source, second := post(`{"ids":["table2"],"quick":true,"workers":8}`)
	if code != http.StatusOK || source != "cache" {
		t.Errorf("second sweep: %d %q, want 200 from cache", code, source)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("sweep bodies differ across worker hints:\n%s\n%s", first, second)
	}
}

// postSuite submits a sweep and returns (status, X-Hped-Source, body).
func postSuite(t *testing.T, ts *httptest.Server, body string) (int, string, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/suite", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/suite: %v", err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Hped-Source"), b
}

// TestSuiteHostTimedNeverCached: a sweep whose body carries host-timed
// metrics (overhead's measured microseconds) differs from run to run, so it
// is never stored under its content address — every request simulates —
// while a deterministic sweep is served from the cache the second time.
func TestSuiteHostTimedNeverCached(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, c := range []struct{ body, second string }{
		{`{"ids":["overhead"],"quick":true}`, "simulate"},
		{`{"ids":["table2"],"quick":true}`, "cache"},
	} {
		for i, want := range []string{"simulate", c.second} {
			if code, source, b := postSuite(t, ts, c.body); code != http.StatusOK || source != want {
				t.Errorf("%s request %d: %d %q, want 200 %q: %s", c.body, i+1, code, source, want, b)
			}
		}
	}
}

// --- metrics --------------------------------------------------------------

func TestMetricsExposition(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	_, ts := newTestServer(t, Config{Workers: 2})

	body := `{"app":"KMN","policy":"lru","rate":50}`
	if code, _, b := postRun(t, ts.Client(), ts.URL, body); code != http.StatusOK {
		t.Fatalf("seed run: %d: %s", code, b)
	}
	if code, source, _ := postRun(t, ts.Client(), ts.URL, body); code != http.StatusOK || source != "cache" {
		t.Fatalf("cache hit expected, got %d %q", code, source)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q lacks exposition version", ct)
	}
	text, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		`hped_requests_total{route_code="run_submit 200"} 2`,
		"hped_runs_started_total 1",
		"hped_runs_completed_total 1",
		"hped_cache_hits_total 1",
		"hped_cache_misses_total 1",
		"hped_cache_entries 1",
		"hped_queue_depth 0",
		"hped_running 0",
		"hped_queue_rejected_total 0",
		`hped_cached_hit_latency_seconds_bucket{le="+Inf"} 1`,
		"hped_cached_hit_latency_seconds_count 1",
		`hped_run_latency_seconds_bucket{le="+Inf"} 1`,
		"hped_sim_events_total{kind=",
		"# TYPE hped_run_latency_seconds histogram",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}
