package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// --- v1 error envelope ----------------------------------------------------

// TestErrorEnvelopeCodes pins the typed error vocabulary: every rejection
// carries the machine-readable {"error":{"code",...}} envelope with the code
// a client (or the cluster coordinator) can switch on.
func TestErrorEnvelopeCodes(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})

	// Invalid spec → bad_spec.
	code, _, body := postRun(t, ts.Client(), ts.URL, `{"app":"NOPE","policy":"lru","rate":75}`)
	if code != http.StatusBadRequest {
		t.Fatalf("bad spec: status %d: %s", code, body)
	}
	eb, ok := DecodeError(body)
	if !ok || eb.Code != ErrBadSpec {
		t.Errorf("bad spec envelope = %+v (ok=%t), want code %q", eb, ok, ErrBadSpec)
	}
	if eb.Message == "" {
		t.Error("bad_spec envelope has no message")
	}

	// Trace-file source → bad_spec: the file lives on the client's disk, not
	// the server's, and its content is outside the spec's content address.
	code, _, body = postRun(t, ts.Client(), ts.URL, `{"app":"trace:runs/colo.hpet","policy":"lru","rate":75}`)
	if code != http.StatusBadRequest {
		t.Fatalf("trace source: status %d: %s", code, body)
	}
	if eb, ok = DecodeError(body); !ok || eb.Code != ErrBadSpec {
		t.Errorf("trace-source envelope = %+v (ok=%t), want code %q", eb, ok, ErrBadSpec)
	} else if !strings.Contains(eb.Message, "trace") {
		t.Errorf("trace-source rejection message unclear: %q", eb.Message)
	}

	// Unknown run ID → not_found, echoing the ID the client asked for.
	code, body = get(t, ts, "/v1/runs/run-v2-00000000000000000000000000000000")
	if code != http.StatusNotFound {
		t.Fatalf("unknown id: status %d: %s", code, body)
	}
	if eb, ok = DecodeError(body); !ok || eb.Code != ErrNotFound {
		t.Errorf("not-found envelope = %+v (ok=%t), want code %q", eb, ok, ErrNotFound)
	}
	if eb.RunID != "run-v2-00000000000000000000000000000000" {
		t.Errorf("not-found envelope run_id = %q, want the requested id", eb.RunID)
	}

	// Bad pagination → bad_spec.
	if code, body = get(t, ts, "/v1/runs?limit=zero"); code != http.StatusBadRequest {
		t.Fatalf("bad limit: status %d: %s", code, body)
	}
	if eb, ok = DecodeError(body); !ok || eb.Code != ErrBadSpec {
		t.Errorf("bad-limit envelope = %+v (ok=%t), want code %q", eb, ok, ErrBadSpec)
	}

	// Draining → draining, with a Retry-After pacing hint.
	srv.Drain()
	resp, err := ts.Client().Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"app":"KMN","policy":"lru","rate":50}`))
	if err != nil {
		t.Fatalf("POST while draining: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining: status %d", resp.StatusCode)
	}
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode draining envelope: %v", err)
	}
	if env.Err.Code != ErrDraining {
		t.Errorf("draining envelope code = %q, want %q", env.Err.Code, ErrDraining)
	}
	assertRetryAfter(t, resp.Header)
}

// TestUnrunnableTuningIsBadSpec: tuning values the simulator cannot run are
// the client's error (400 bad_spec), not a 500 internal that a coordinator
// would charge to the backend's breaker.
func TestUnrunnableTuningIsBadSpec(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, tuning := range []string{
		`"hir_entries":12`, `"hir_entries":1048576`, `"hpe_interval":1000000`,
		`"hpe_division_threshold":1000`, `"set_size_shift":6`, `"set_size_shift":17`,
		`"prepopulate":true`, `"walk_latency":513`, `"walk_latency":9223372036854775807`,
		`"transfer_interval":1025`,
	} {
		assertBadSpec(t, ts, `{"app":"HSD","policy":"hpe","rate":75,"tuning":{`+tuning+`}}`)
	}
	for _, knob := range []string{`"channels":65`, `"prefetch_pages":16`} {
		assertBadSpec(t, ts, `{"app":"HSD","policy":"lru","rate":75,`+knob+`}`)
	}
}

// assertBadSpec posts body as a run and checks the answer is 400 bad_spec.
func assertBadSpec(t *testing.T, ts *httptest.Server, body string) {
	t.Helper()
	code, _, resp := postRun(t, ts.Client(), ts.URL, body)
	if code != http.StatusBadRequest {
		t.Errorf("%s: status %d, want 400: %s", body, code, resp)
		return
	}
	if eb, ok := DecodeError(resp); !ok || eb.Code != ErrBadSpec {
		t.Errorf("%s: envelope %+v (ok=%t), want code %q", body, eb, ok, ErrBadSpec)
	}
}

// assertRetryAfter checks the Retry-After header is a usable number of
// seconds — an integer in [1, 300] — not merely present.
func assertRetryAfter(t *testing.T, h http.Header) {
	t.Helper()
	raw := h.Get("Retry-After")
	if raw == "" {
		t.Error("backpressure response lacks Retry-After")
		return
	}
	sec, err := strconv.Atoi(raw)
	if err != nil || sec < 1 || sec > 300 {
		t.Errorf("Retry-After = %q, want an integer in [1, 300]", raw)
	}
}

// --- GET /v1/runs ---------------------------------------------------------

func TestListRunsEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	_, ts := newTestServer(t, Config{Workers: 2})

	// Empty server → empty listing, not an error.
	code, body := get(t, ts, "/v1/runs")
	if code != http.StatusOK {
		t.Fatalf("empty list: status %d: %s", code, body)
	}
	var empty RunListResponse
	if err := json.Unmarshal(body, &empty); err != nil {
		t.Fatal(err)
	}
	if len(empty.Runs) != 0 || empty.Truncated {
		t.Fatalf("empty server lists %+v", empty)
	}

	specs := []string{
		`{"app":"HOT","policy":"lru","rate":75}`,
		`{"app":"STN","policy":"lru","rate":75}`,
		`{"app":"KMN","policy":"lru","rate":50}`,
	}
	ids := make(map[string]bool, len(specs))
	for _, sp := range specs {
		code, _, body := postRun(t, ts.Client(), ts.URL, sp)
		if code != http.StatusOK {
			t.Fatalf("run: status %d: %s", code, body)
		}
		var rr RunResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatal(err)
		}
		ids[rr.ID] = true
	}

	code, body = get(t, ts, "/v1/runs")
	if code != http.StatusOK {
		t.Fatalf("list: status %d: %s", code, body)
	}
	var list RunListResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Runs) != len(specs) {
		t.Fatalf("listed %d runs, want %d: %+v", len(list.Runs), len(specs), list.Runs)
	}
	for i, e := range list.Runs {
		if !ids[e.ID] {
			t.Errorf("unexpected entry %+v", e)
		}
		if e.Status != "cached" || e.Kind != "run" {
			t.Errorf("entry %+v: want status cached, kind run", e)
		}
		if e.Summary == "" {
			t.Errorf("entry %s has no spec summary", e.ID)
		}
		if i > 0 && list.Runs[i-1].ID >= e.ID {
			t.Errorf("listing out of canonical order: %q before %q", list.Runs[i-1].ID, e.ID)
		}
	}

	// Pagination: limit=1 pages walk the same set in the same order, the
	// after parameter is exclusive, and Truncated flags every non-final page.
	var walked []string
	after := ""
	pages := 0
	for {
		path := "/v1/runs?limit=1"
		if after != "" {
			path += "&after=" + url.QueryEscape(after)
		}
		code, body := get(t, ts, path)
		if code != http.StatusOK {
			t.Fatalf("page: status %d", code)
		}
		var page RunListResponse
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatal(err)
		}
		if len(page.Runs) > 1 {
			t.Fatalf("page holds %d entries, limit was 1", len(page.Runs))
		}
		if len(page.Runs) == 0 {
			break
		}
		walked = append(walked, page.Runs[0].ID)
		if pages++; pages > len(specs) {
			t.Fatal("pagination never terminates")
		}
		if !page.Truncated {
			break
		}
		after = page.Runs[0].ID
	}
	if len(walked) != len(list.Runs) {
		t.Fatalf("pagination walked %d entries, full listing has %d", len(walked), len(list.Runs))
	}
	for i, e := range list.Runs {
		if walked[i] != e.ID {
			t.Errorf("pagination order diverges at %d: %q vs %q", i, walked[i], e.ID)
		}
	}

	// after past the end → empty page, no Truncated.
	code, body = get(t, ts, "/v1/runs?after="+url.QueryEscape(walked[len(walked)-1]))
	if code != http.StatusOK {
		t.Fatalf("tail page: status %d", code)
	}
	var tail RunListResponse
	if err := json.Unmarshal(body, &tail); err != nil {
		t.Fatal(err)
	}
	if len(tail.Runs) != 0 || tail.Truncated {
		t.Fatalf("page past the end lists %+v", tail)
	}
}

func TestParseListQuery(t *testing.T) {
	mk := func(query string) *http.Request {
		return httptest.NewRequest(http.MethodGet, "/v1/runs?"+query, nil)
	}
	if limit, after, err := parseListQuery(mk("")); err != nil || limit != defaultListLimit || after != "" {
		t.Errorf("defaults: limit=%d after=%q err=%v", limit, after, err)
	}
	if limit, _, err := parseListQuery(mk("limit=7")); err != nil || limit != 7 {
		t.Errorf("explicit limit: %d, %v", limit, err)
	}
	if limit, _, err := parseListQuery(mk("limit=999999")); err != nil || limit != maxListLimit {
		t.Errorf("oversized limit should clamp to %d, got %d, %v", maxListLimit, limit, err)
	}
	for _, bad := range []string{"limit=0", "limit=-3", "limit=ten"} {
		if _, _, err := parseListQuery(mk(bad)); err == nil {
			t.Errorf("%s accepted", bad)
		}
	}
	if _, after, err := parseListQuery(mk("after=run-v2-abc")); err != nil || after != "run-v2-abc" {
		t.Errorf("after: %q, %v", after, err)
	}
}

// TestSummaryIndexBounded pins the enumeration index to what the server can
// answer for: with a cache that holds only a couple of bodies, many distinct
// submissions (some of them racing for the one worker, so some may be
// rejected with 429) and no listing in between, the summaries held never
// exceed the cache's and the coalescer's own membership.
func TestSummaryIndexBounded(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: -1, CacheBytes: 8 << 10})

	var wg sync.WaitGroup
	for rate := 30; rate < 70; rate++ {
		wg.Add(1)
		go func(rate int) {
			defer wg.Done()
			body := `{"app":"HOT","policy":"lru","rate":` + strconv.Itoa(rate) + `}`
			if code, _, b := postRun(t, ts.Client(), ts.URL, body); code != http.StatusOK && code != http.StatusTooManyRequests {
				t.Errorf("rate %d: status %d: %s", rate, code, b)
			}
		}(rate)
		if rate%4 == 3 {
			wg.Wait() // bursts of four: contention without starving every request
		}
	}
	wg.Wait()

	held := len(srv.cache.Entries()) + len(srv.co.Entries())
	if st := srv.cache.Snapshot(); held != st.Entries || st.Evictions == 0 {
		t.Fatalf("index holds %d ids; cache holds %d after %d evictions", held, st.Entries, st.Evictions)
	}
	if held > 4 {
		t.Fatalf("index holds %d ids under an 8 KiB cache", held)
	}
	code, body := get(t, ts, "/v1/runs")
	if code != http.StatusOK {
		t.Fatalf("list: status %d: %s", code, body)
	}
	var list RunListResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Runs) != held {
		t.Fatalf("listed %d runs, index holds %d", len(list.Runs), held)
	}
	for _, e := range list.Runs {
		if e.Status != "cached" || !strings.HasPrefix(e.Summary, "HOT lru @") {
			t.Errorf("entry %+v: want a cached run with its summary", e)
		}
	}
}
