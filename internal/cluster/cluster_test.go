package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpe/internal/runspec"
	"hpe/internal/server"
)

// --- chaos harness -------------------------------------------------------
//
// Each test backend is a real server.Server behind a chaos gate that can
// simulate the two loss modes the coordinator must survive: a kill
// (connections reset, every new connection refused — a crashed process) and
// a pause (every request, including /healthz, blocks — a SIGSTOPped process
// or dead NIC). A hold blocks run POSTs only: the backend stays healthy but
// busy, which pins the coordinator's placement for the idle-first tests. The coordinator under test talks to the gates over real
// HTTP, so what the tests exercise is the exact production path: transport
// errors, health-probe timeouts, death-watch cancellation, ring-walk
// re-dispatch.

type chaosBackend struct {
	srv  *server.Server
	ts   *httptest.Server
	gate *chaosGate
}

type chaosGate struct {
	inner http.Handler

	killed atomic.Bool
	paused atomic.Pointer[chan struct{}] // non-nil while paused; closed to resume
	held   atomic.Pointer[chan struct{}] // non-nil while run POSTs are held; closed to release
	// corrupt, when set, is the body every run POST gets with a 200 in
	// place of the backend's answer — a backend that answers but lies.
	corrupt atomic.Pointer[string]
	// specFail, when set, makes every run POST answer 500 `internal` naming
	// the posted spec's run ID: the envelope a backend sends when the
	// simulation of that spec fails.
	specFail atomic.Bool

	runPosts atomic.Int64 // POST /v1/runs requests seen
	// killAt / pauseAt, when positive, trigger the matching failure upon
	// seeing that many run POSTs — a deterministic mid-sweep crash or hang.
	killAt   atomic.Int64
	pauseAt  atomic.Int64
	killrun  func()
	pauserun func()
}

func (g *chaosGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && r.URL.Path == "/v1/runs" {
		n := g.runPosts.Add(1)
		if at := g.killAt.Load(); at > 0 && n == at {
			g.killrun()
		}
		if at := g.pauseAt.Load(); at > 0 && n == at {
			g.pauserun()
		}
		if ch := g.held.Load(); ch != nil {
			<-*ch // a busy worker: /healthz still answers
		}
		if body := g.corrupt.Load(); body != nil {
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, *body)
			return
		}
		if g.specFail.Load() {
			if sp, err := runspec.Decode(r.Body); err == nil {
				server.WriteError(w, http.StatusInternalServerError, server.ErrInternal,
					"computation failed: simulator panic", sp.ID())
				return
			}
		}
	}
	if g.killed.Load() {
		// A crashed process does not write an HTTP response: drop the
		// connection on the floor.
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		panic(http.ErrAbortHandler)
	}
	if ch := g.paused.Load(); ch != nil {
		<-*ch // blocked until resumed; health probes time out meanwhile
		if g.killed.Load() {
			panic(http.ErrAbortHandler)
		}
	}
	g.inner.ServeHTTP(w, r)
}

func newChaosBackend(t *testing.T, workers int) *chaosBackend {
	t.Helper()
	srv := server.New(server.Config{Workers: workers})
	gate := &chaosGate{inner: srv.Handler()}
	ts := httptest.NewServer(gate)
	cb := &chaosBackend{srv: srv, ts: ts, gate: gate}
	gate.killrun = cb.kill
	gate.pauserun = cb.pause
	t.Cleanup(func() {
		cb.resume() // never leave handler goroutines blocked on the pause gate
		cb.release()
		cb.ts.Close()
		cb.srv.Close()
	})
	return cb
}

// kill simulates a crash: future connections are dropped and in-flight ones
// reset mid-body.
func (cb *chaosBackend) kill() {
	cb.gate.killed.Store(true)
	go cb.ts.CloseClientConnections()
}

// pause simulates a hung process: every request blocks until resume.
func (cb *chaosBackend) pause() {
	ch := make(chan struct{})
	cb.gate.paused.Store(&ch)
}

func (cb *chaosBackend) resume() {
	if ch := cb.gate.paused.Swap(nil); ch != nil {
		close(*ch)
	}
}

// hold blocks every run POST at the gate until release.
func (cb *chaosBackend) hold() {
	ch := make(chan struct{})
	cb.gate.held.Store(&ch)
}

func (cb *chaosBackend) release() {
	if ch := cb.gate.held.Swap(nil); ch != nil {
		close(*ch)
	}
}

// testCluster is N chaos backends plus a coordinator over them.
type testCluster struct {
	backends []*chaosBackend
	coord    *Coordinator
	front    *httptest.Server
}

func newTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	return newTestClusterWorkers(t, n, 2)
}

// newTestClusterWorkers is newTestCluster with workers simulation workers
// per backend.
func newTestClusterWorkers(t *testing.T, n, workers int) *testCluster {
	t.Helper()
	tc := &testCluster{}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		cb := newChaosBackend(t, workers)
		tc.backends = append(tc.backends, cb)
		urls[i] = cb.ts.URL
	}
	// HealthTimeout must tolerate scheduler starvation: on a small machine
	// the backends' CPU-bound simulations share cores with the /healthz
	// handlers, and a too-tight probe deadline declares healthy-but-busy
	// backends dead mid-sweep. 2s is far past any plausible handler delay
	// while still making the pause tests finish quickly.
	coord, err := New(Config{
		Backends:         urls,
		HealthInterval:   100 * time.Millisecond,
		HealthTimeout:    2 * time.Second,
		MaxAttempts:      5,
		BackoffBase:      10 * time.Millisecond,
		BackoffMax:       100 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	tc.coord = coord
	tc.front = httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		tc.front.Close()
		coord.Close()
	})
	return tc
}

// --- HTTP helpers --------------------------------------------------------

func post(t *testing.T, base, path, body string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: read body: %v", path, err)
	}
	return resp.StatusCode, b, resp.Header
}

func get(t *testing.T, base, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, b
}

// quickSuiteBody sweeps the deterministic figure experiments over the quick
// subset. The overhead experiment is excluded on purpose: it embeds host
// wall-clock measurements, so no two executions are byte-identical anywhere
// — single node included.
const quickSuiteBody = `{"ids":["fig10","fig12"],"quick":true,"seed":1}`

// singleNodeSuiteGolden computes the sweep on one undamaged backend directly
// — the single-node truth the coordinator's merged body must equal.
func singleNodeSuiteGolden(t *testing.T, cb *chaosBackend) []byte {
	t.Helper()
	code, body, _ := post(t, cb.ts.URL, "/v1/suite", quickSuiteBody)
	if code != http.StatusOK {
		t.Fatalf("single-node suite: status %d: %s", code, body)
	}
	return body
}

// --- byte-identity -------------------------------------------------------

// TestClusterSweepByteIdentical is the tentpole contract: a 3-backend
// coordinator sweep must render byte-for-byte the body a single hped
// renders for the same request.
func TestClusterSweepByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-subset sweep skipped in -short mode")
	}
	tc := newTestCluster(t, 3)
	code, merged, _ := post(t, tc.front.URL, "/v1/suite", quickSuiteBody)
	if code != http.StatusOK {
		t.Fatalf("coordinator suite: status %d: %s", code, merged)
	}
	golden := singleNodeSuiteGolden(t, tc.backends[0])
	if !bytes.Equal(merged, golden) {
		t.Fatalf("merged sweep differs from single-node run:\nmerged %d bytes, single %d bytes",
			len(merged), len(golden))
	}
	// Every backend took a share of the matrix: the coordinator sharded, it
	// did not just proxy the whole sweep to one node.
	shared := 0
	for i, cb := range tc.backends {
		if n := cb.gate.runPosts.Load(); n > 0 {
			shared++
		} else {
			t.Logf("backend %d received no shards", i)
		}
	}
	if shared < 2 {
		t.Fatalf("only %d backends received shards; consistent hashing should spread the matrix", shared)
	}
	// The merged body is cached: a re-POST is a coordinator cache hit.
	code, again, _ := post(t, tc.front.URL, "/v1/suite", quickSuiteBody)
	if code != http.StatusOK || !bytes.Equal(again, merged) {
		t.Fatalf("cached re-sweep: status %d, bytes equal %t", code, bytes.Equal(again, merged))
	}
}

// TestClusterRunByteIdentical checks the single-run path: the coordinator
// relays the owning backend's RunResponse verbatim, so the bytes equal a
// direct single-node submission's.
func TestClusterRunByteIdentical(t *testing.T) {
	tc := newTestCluster(t, 3)
	const spec = `{"app":"HOT","policy":"hpe","rate":75}`
	code, viaCluster, _ := post(t, tc.front.URL, "/v1/runs", spec)
	if code != http.StatusOK {
		t.Fatalf("coordinator run: status %d: %s", code, viaCluster)
	}
	code, direct, _ := post(t, tc.backends[1].ts.URL, "/v1/runs", spec)
	if code != http.StatusOK {
		t.Fatalf("direct run: status %d", code)
	}
	if !bytes.Equal(viaCluster, direct) {
		t.Fatal("coordinator run body differs from single-node body")
	}
	var rr server.RunResponse
	if err := json.Unmarshal(viaCluster, &rr); err != nil {
		t.Fatalf("decode run response: %v", err)
	}
	if rr.ID == "" || rr.Result.Accesses == 0 {
		t.Fatalf("suspicious run response: %+v", rr)
	}
	// GET /v1/runs/{id} resolves cluster-wide (coordinator cache here).
	code, fetched := get(t, tc.front.URL, "/v1/runs/"+rr.ID)
	if code != http.StatusOK || !bytes.Equal(fetched, viaCluster) {
		t.Fatalf("GET by id: status %d, bytes equal %t", code, bytes.Equal(fetched, viaCluster))
	}
}

// TestClusterScenarioRunByteIdentical checks workload-v2 specs ride the same
// relay: a phase-schedule run and a colocated two-tenant run each produce
// byte-identical bodies through the coordinator and a direct single-node
// submission, and the colocated body carries per-tenant attribution.
func TestClusterScenarioRunByteIdentical(t *testing.T) {
	tc := newTestCluster(t, 3)
	specs := []string{
		`{"phases":"HOT:16,HSD:32,HOT:16","policy":"lru","rate":75}`,
		`{"tenants":"HSD,BFS","interleave":512,"policy":"hpe","rate":75}`,
	}
	for _, spec := range specs {
		code, viaCluster, _ := post(t, tc.front.URL, "/v1/runs", spec)
		if code != http.StatusOK {
			t.Fatalf("coordinator scenario run: status %d: %s", code, viaCluster)
		}
		code, direct, _ := post(t, tc.backends[0].ts.URL, "/v1/runs", spec)
		if code != http.StatusOK {
			t.Fatalf("direct scenario run: status %d", code)
		}
		if !bytes.Equal(viaCluster, direct) {
			t.Fatalf("scenario %s: coordinator body differs from single-node body", spec)
		}
	}
	var rr server.RunResponse
	code, body, _ := post(t, tc.front.URL, "/v1/runs", specs[1])
	if code != http.StatusOK {
		t.Fatalf("cached scenario re-run: status %d", code)
	}
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatalf("decode run response: %v", err)
	}
	if len(rr.Result.Driver.Tenants) != 2 {
		t.Fatalf("colocated run body lacks per-tenant stats: %+v", rr.Result.Driver.Tenants)
	}
}

// --- chaos ---------------------------------------------------------------

// TestBackendKilledMidSweep crashes one backend partway through a sweep: its
// connections reset, the health loop marks it dead, and its shards
// re-dispatch around the ring. The merged body must still be byte-identical
// to a single-node run.
func TestBackendKilledMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short mode")
	}
	tc := newTestCluster(t, 3)
	// Crash backend 2 at its 3rd shard — deterministically mid-sweep.
	tc.backends[2].gate.killAt.Store(3)

	code, merged, _ := post(t, tc.front.URL, "/v1/suite", quickSuiteBody)
	if code != http.StatusOK {
		t.Fatalf("sweep with mid-flight crash: status %d: %s", code, merged)
	}
	if n := tc.backends[2].gate.runPosts.Load(); n < 3 {
		t.Fatalf("backend 2 saw %d run posts; the crash never happened mid-sweep", n)
	}
	if got := tc.coord.met.redispatchCount(); got == 0 {
		t.Fatal("no re-dispatches recorded despite a crashed backend")
	}
	golden := singleNodeSuiteGolden(t, tc.backends[0])
	if !bytes.Equal(merged, golden) {
		t.Fatal("post-crash merged sweep differs from single-node run")
	}
}

// TestBackendPausedPastHealthDeadline hangs one backend without closing its
// connections — the nastier failure: in-flight shards block silently. The
// death watch must abandon them once the health probe times out, and the
// sweep must complete byte-identical on the survivors.
func TestBackendPausedPastHealthDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short mode")
	}
	tc := newTestCluster(t, 3)
	// Hang backend 1 on its 3rd shard — deterministically mid-sweep. The
	// triggering request itself blocks inside the gate, exactly like a
	// process that stops scheduling with a request half-served.
	tc.backends[1].gate.pauseAt.Store(3)

	code, merged, _ := post(t, tc.front.URL, "/v1/suite", quickSuiteBody)
	if code != http.StatusOK {
		t.Fatalf("sweep with paused backend: status %d: %s", code, merged)
	}
	if tc.backends[1].gate.paused.Load() == nil {
		t.Fatal("pause never triggered; the chaos never happened")
	}
	if got := tc.coord.met.redispatchCount(); got == 0 {
		t.Fatal("no re-dispatches recorded despite a paused backend")
	}
	golden := singleNodeSuiteGolden(t, tc.backends[0])
	if !bytes.Equal(merged, golden) {
		t.Fatal("post-pause merged sweep differs from single-node run")
	}
}

// TestAllBackendsDead pins the exhaustion envelope: with every backend gone,
// a run submission fails with 503 backend_unavailable — the coordinator's
// one addition to the shared error vocabulary.
func TestAllBackendsDead(t *testing.T) {
	tc := newTestCluster(t, 2)
	for _, cb := range tc.backends {
		cb.kill()
	}
	tc.coord.CheckHealth(tc.coord.baseCtx)

	code, body, hdr := post(t, tc.front.URL, "/v1/runs", `{"app":"HOT","policy":"lru","rate":75}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503; body %s", code, body)
	}
	eb, ok := server.DecodeError(body)
	if !ok || eb.Code != server.ErrBackendUnavailable {
		t.Fatalf("error envelope = %+v (ok=%t), want code backend_unavailable", eb, ok)
	}
	if eb.RunID == "" {
		t.Fatal("envelope missing the run id the request resolved to")
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After hint")
	}
	// The coordinator's own health now fails too.
	code, body = get(t, tc.front.URL, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with no live backends: status %d: %s", code, body)
	}
}

// TestBackendRecovery kills a backend, then resurrects it (same address) and
// checks the health loop brings it back into rotation — the consistent-hash
// ring needs no rebuild.
func TestBackendRecovery(t *testing.T) {
	tc := newTestCluster(t, 2)
	cb := tc.backends[0]
	cb.kill()
	tc.coord.CheckHealth(tc.coord.baseCtx)
	if tc.coord.backends[cb.ts.URL].isAlive() {
		t.Fatal("killed backend still marked alive after a health round")
	}
	// Resurrect: clear the kill flag (the gate answers again).
	cb.gate.killed.Store(false)
	tc.coord.CheckHealth(tc.coord.baseCtx)
	if !tc.coord.backends[cb.ts.URL].isAlive() {
		t.Fatal("recovered backend not marked alive after a health round")
	}
	code, body, _ := post(t, tc.front.URL, "/v1/runs", `{"app":"STN","policy":"lru","rate":75}`)
	if code != http.StatusOK {
		t.Fatalf("run after recovery: status %d: %s", code, body)
	}
}

// --- idle-first placement -------------------------------------------------

// sameOwnerSpecs returns n run bodies whose content addresses one backend
// owns, and that backend's index in tc.backends.
func sameOwnerSpecs(t *testing.T, tc *testCluster, n int) ([]string, int) {
	t.Helper()
	byOwner := map[string][]string{}
	for _, app := range []string{"HOT", "HSD", "STN", "SGM", "NW", "BFS"} {
		for _, pol := range []string{"lru", "hpe", "fifo"} {
			sp := runspec.Spec{App: app, Policy: pol, Rate: 75}
			owner := tc.coord.ring.sequence(sp.ID())[0]
			byOwner[owner] = append(byOwner[owner],
				fmt.Sprintf(`{"app":%q,"policy":%q,"rate":75}`, app, pol))
			if len(byOwner[owner]) < n {
				continue
			}
			for i, cb := range tc.backends {
				if cb.ts.URL == owner {
					return byOwner[owner], i
				}
			}
		}
	}
	t.Fatalf("no backend owns %d of the candidate specs", n)
	return nil, 0
}

// singleNodeRun computes spec on a fresh one-worker hped: the single-node
// truth a coordinator's body must equal.
func singleNodeRun(t *testing.T, spec string) []byte {
	t.Helper()
	srv := server.New(server.Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	code, body, _ := post(t, ts.URL, "/v1/runs", spec)
	if code != http.StatusOK {
		t.Fatalf("single-node run: status %d: %s", code, body)
	}
	return body
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// postAsync posts spec to the coordinator in the background; the returned
// function waits for the answer and checks it is a 200.
func postAsync(t *testing.T, tc *testCluster, spec string) (wait func() []byte) {
	t.Helper()
	type answer struct {
		code int
		body []byte
		err  error
	}
	done := make(chan answer, 1)
	go func() {
		resp, err := http.Post(tc.front.URL+"/v1/runs", "application/json", strings.NewReader(spec))
		if err != nil {
			done <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		done <- answer{resp.StatusCode, body, err}
	}()
	return func() []byte {
		t.Helper()
		a := <-done
		if a.err != nil || a.code != http.StatusOK {
			t.Fatalf("run %s: status %d, err %v: %s", spec, a.code, a.err, a.body)
		}
		return a.body
	}
}

// TestIdleFirstSpillsPastBusyOwner holds the owner of spec X while X runs:
// a spec Y with the same owner lands on the other, idle backend, answers a
// body byte-identical to a single-node run, and counts as a spill, not a
// re-dispatch.
func TestIdleFirstSpillsPastBusyOwner(t *testing.T) {
	tc := newTestClusterWorkers(t, 2, 1)
	specs, o := sameOwnerSpecs(t, tc, 2)
	owner, other := tc.backends[o], tc.backends[1-o]

	owner.hold()
	t.Cleanup(owner.release) // before the front closes: it waits for held requests
	waitX := postAsync(t, tc, specs[0])
	waitFor(t, "X to reach its owner", func() bool { return owner.gate.runPosts.Load() == 1 })

	// Y is posted in the background so that, were it queued behind the
	// held owner, the wait below fails instead of hanging.
	waitY := postAsync(t, tc, specs[1])
	waitFor(t, "Y to land on the idle backend", func() bool { return other.gate.runPosts.Load() == 1 })
	y := waitY()
	if !bytes.Equal(y, singleNodeRun(t, specs[1])) {
		t.Fatal("spilled run body differs from the single-node body")
	}
	if s, r := tc.coord.met.spillCount(), tc.coord.met.redispatchCount(); s != 1 || r != 0 {
		t.Fatalf("spilled %d, redispatched %d; want 1 and 0", s, r)
	}

	owner.release()
	if !bytes.Equal(waitX(), singleNodeRun(t, specs[0])) {
		t.Fatal("owner's run body differs from the single-node body")
	}
	if n := owner.gate.runPosts.Load(); n != 1 {
		t.Fatalf("the owner saw %d run posts, want 1 (X)", n)
	}
	// A spilled run stays findable: GET walks every live backend.
	var rr server.RunResponse
	if err := json.Unmarshal(y, &rr); err != nil {
		t.Fatal(err)
	}
	if code, got := get(t, tc.front.URL, "/v1/runs/"+rr.ID); code != http.StatusOK || !bytes.Equal(got, y) {
		t.Fatalf("GET spilled run: status %d, bytes equal %t", code, bytes.Equal(got, y))
	}
}

// TestIdleFirstQueuesAtOwnerWhenAllBusy: with every backend's worker held,
// the next shard has no idle backend to spill to and queues at its owner,
// exactly as owner-first placement would.
func TestIdleFirstQueuesAtOwnerWhenAllBusy(t *testing.T) {
	tc := newTestClusterWorkers(t, 2, 1)
	specs, o := sameOwnerSpecs(t, tc, 3)
	owner, other := tc.backends[o], tc.backends[1-o]
	owner.hold()
	other.hold()
	t.Cleanup(owner.release) // before the front closes: it waits for held requests
	t.Cleanup(other.release)

	waitX := postAsync(t, tc, specs[0])
	waitFor(t, "X to reach its owner", func() bool { return owner.gate.runPosts.Load() == 1 })
	waitY := postAsync(t, tc, specs[1])
	waitFor(t, "Y to spill", func() bool { return other.gate.runPosts.Load() == 1 })
	waitZ := postAsync(t, tc, specs[2])
	waitFor(t, "Z to queue at its owner", func() bool { return owner.gate.runPosts.Load() == 2 })

	owner.release()
	other.release()
	for i, wait := range []func() []byte{waitX, waitY, waitZ} {
		if !bytes.Equal(wait(), singleNodeRun(t, specs[i])) {
			t.Fatalf("run %d body differs from the single-node body", i)
		}
	}
	if n := other.gate.runPosts.Load(); n != 1 {
		t.Fatalf("the spill backend saw %d run posts, want 1 (Y)", n)
	}
	if s, r := tc.coord.met.spillCount(), tc.coord.met.redispatchCount(); s != 1 || r != 0 {
		t.Fatalf("spilled %d, redispatched %d; want 1 and 0", s, r)
	}
}

// TestDeadOwnerIsRedispatch: a shard whose owner is dead lands on the next
// backend and counts as a re-dispatch, not a spill.
func TestDeadOwnerIsRedispatch(t *testing.T) {
	tc := newTestClusterWorkers(t, 2, 1)
	specs, o := sameOwnerSpecs(t, tc, 1)
	tc.backends[o].kill()
	tc.coord.CheckHealth(tc.coord.baseCtx)

	code, body, _ := post(t, tc.front.URL, "/v1/runs", specs[0])
	if code != http.StatusOK {
		t.Fatalf("run past a dead owner: status %d: %s", code, body)
	}
	if !bytes.Equal(body, singleNodeRun(t, specs[0])) {
		t.Fatal("re-dispatched run body differs from the single-node body")
	}
	if s, r := tc.coord.met.spillCount(), tc.coord.met.redispatchCount(); s != 0 || r != 1 {
		t.Fatalf("spilled %d, redispatched %d; want 0 and 1", s, r)
	}
}

// TestCorruptRunBodyRedispatched: a backend that answers a run POST with
// 200 but a body for another run, or a body that does not decode, is
// charged a failure, and the shard lands on the other backend; the merged
// sweep is still the single-node body byte for byte.
func TestCorruptRunBodyRedispatched(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-subset sweeps skipped in -short mode")
	}
	bodies := map[string]string{
		"wrong-id":    `{"id":"0000000000000000","request":{},"result":{}}`,
		"undecodable": `{"id":`,
		"wrong-shape": `{"id":"x","result":[]}`,
	}
	for _, name := range []string{"wrong-id", "undecodable", "wrong-shape"} {
		t.Run(name, func(t *testing.T) {
			tc := newTestCluster(t, 2)
			body := bodies[name]
			tc.backends[0].gate.corrupt.Store(&body)
			code, merged, _ := post(t, tc.front.URL, "/v1/suite", quickSuiteBody)
			if code != http.StatusOK {
				t.Fatalf("coordinator suite: status %d: %s", code, merged)
			}
			if golden := singleNodeSuiteGolden(t, tc.backends[1]); !bytes.Equal(merged, golden) {
				t.Fatalf("merged sweep differs from single-node run: merged %d bytes, single %d bytes",
					len(merged), len(golden))
			}
			if tc.backends[0].gate.runPosts.Load() == 0 {
				t.Fatal("no shard reached the corrupt backend")
			}
			for _, s := range tc.coord.snapshots() {
				if s.Name == tc.backends[0].ts.URL && s.Failures == 0 {
					t.Fatalf("corrupt backend answered %d run POSTs with no failure charged",
						tc.backends[0].gate.runPosts.Load())
				}
				if s.Name == tc.backends[1].ts.URL && s.Failures != 0 {
					t.Fatalf("healthy backend charged %d failures", s.Failures)
				}
			}
		})
	}
}

// TestHostileSpecOpensNoBreaker: a spec whose walk latency overflowed the
// engine clock made every backend answer 500, which the coordinator charged
// to each breaker in its ring walk. It is now a 400 bad_spec, on the
// coordinator as on a backend, and every breaker stays closed.
func TestHostileSpecOpensNoBreaker(t *testing.T) {
	tc := newTestCluster(t, 2)
	const hostile = `{"app":"HOT","policy":"lru","rate":75,"tuning":{"walk_latency":9223372036854775807}}`
	for attempt := 0; attempt < 3; attempt++ {
		code, body, _ := post(t, tc.front.URL, "/v1/runs", hostile)
		if eb, ok := server.DecodeError(body); code != http.StatusBadRequest || !ok || eb.Code != server.ErrBadSpec {
			t.Fatalf("hostile spec: status %d, envelope %+v (ok=%t), want 400 bad_spec", code, eb, ok)
		}
	}
	code, direct, _ := post(t, tc.backends[0].ts.URL, "/v1/runs", hostile)
	if eb, ok := server.DecodeError(direct); code != http.StatusBadRequest || !ok || eb.Code != server.ErrBadSpec {
		t.Fatalf("hostile spec on a backend: status %d, envelope %+v (ok=%t)", code, eb, ok)
	}
	for _, s := range tc.coord.snapshots() {
		if s.BreakerOpen || s.Failures != 0 {
			t.Fatalf("backend %s: breaker open %t after %d failures", s.Name, s.BreakerOpen, s.Failures)
		}
	}
	if code, body, _ := post(t, tc.front.URL, "/v1/runs", `{"app":"HOT","policy":"lru","rate":75}`); code != http.StatusOK {
		t.Fatalf("valid run after the hostile one: status %d: %s", code, body)
	}
}

// TestSpecFailureOpensNoBreaker: a spec whose simulation fails on every
// backend comes back as the backends' own 500 `internal` envelope, and as
// many such POSTs as the breaker threshold leave every breaker closed and
// uncharged: two backends failing the same run the same way blame the spec.
func TestSpecFailureOpensNoBreaker(t *testing.T) {
	tc := newTestCluster(t, 2)
	for _, cb := range tc.backends {
		cb.gate.specFail.Store(true)
	}
	for i := 0; i < tc.coord.cfg.BreakerThreshold; i++ {
		sp := runspec.Spec{App: "HOT", Policy: "lru", Rate: 60 + i}
		code, body, _ := post(t, tc.front.URL, "/v1/runs", fmt.Sprintf(`{"app":"HOT","policy":"lru","rate":%d}`, sp.Rate))
		eb, ok := server.DecodeError(body)
		if code != http.StatusInternalServerError || !ok || eb.Code != server.ErrInternal || eb.RunID != sp.ID() {
			t.Fatalf("failing spec: status %d, envelope %+v (ok=%t), want 500 internal for %s", code, eb, ok, sp.ID())
		}
	}
	for _, s := range tc.coord.snapshots() {
		if s.BreakerOpen || s.Failures != 0 {
			t.Fatalf("backend %s: breaker open %t after %d failures", s.Name, s.BreakerOpen, s.Failures)
		}
	}
	for _, cb := range tc.backends {
		cb.gate.specFail.Store(false)
	}
	if code, body, _ := post(t, tc.front.URL, "/v1/runs", `{"app":"HOT","policy":"lru","rate":75}`); code != http.StatusOK {
		t.Fatalf("valid run after the failing ones: status %d: %s", code, body)
	}
}

// TestSickBackendStillOpens: a backend that answers 500 `internal` for
// every spec while its peer answers the same specs is sick, not unlucky.
// Each such 500 is charged once the peer succeeds, so as many shards as the
// breaker threshold, each owned by the sick backend, open its breaker, and
// every client still gets the peer's 200.
func TestSickBackendStillOpens(t *testing.T) {
	tc := newTestCluster(t, 2)
	sick := tc.backends[0]
	sick.gate.specFail.Store(true)
	posted := 0
	for rate := 1; rate <= 100 && posted < tc.coord.cfg.BreakerThreshold; rate++ {
		sp := runspec.Spec{App: "HOT", Policy: "lru", Rate: rate}
		if tc.coord.ring.sequence(sp.ID())[0] != sick.ts.URL {
			continue // owned by the healthy peer: the sick backend is never asked
		}
		code, body, _ := post(t, tc.front.URL, "/v1/runs", fmt.Sprintf(`{"app":"HOT","policy":"lru","rate":%d}`, rate))
		if code != http.StatusOK {
			t.Fatalf("rate %d: status %d: %s", rate, code, body)
		}
		posted++
	}
	if posted < tc.coord.cfg.BreakerThreshold {
		t.Fatalf("found only %d specs owned by the sick backend", posted)
	}
	for _, s := range tc.coord.snapshots() {
		switch {
		case s.Name == sick.ts.URL && s.BreakerOpens == 0:
			t.Errorf("sick backend: breaker never opened after %d failures", s.Failures)
		case s.Name != sick.ts.URL && s.Failures != 0:
			t.Errorf("healthy backend %s charged %d failures", s.Name, s.Failures)
		}
	}
}

// --- enumeration ---------------------------------------------------------

func TestMergedEnumeration(t *testing.T) {
	tc := newTestCluster(t, 3)
	specs := []string{
		`{"app":"HOT","policy":"lru","rate":75}`,
		`{"app":"STN","policy":"lru","rate":75}`,
		`{"app":"SGM","policy":"lru","rate":50}`,
		`{"app":"NW","policy":"hpe","rate":50}`,
	}
	var ids []string
	for _, sp := range specs {
		code, body, _ := post(t, tc.front.URL, "/v1/runs", sp)
		if code != http.StatusOK {
			t.Fatalf("run: status %d: %s", code, body)
		}
		var rr server.RunResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rr.ID)
	}

	code, body := get(t, tc.front.URL, "/v1/runs")
	if code != http.StatusOK {
		t.Fatalf("list: status %d: %s", code, body)
	}
	var list server.RunListResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	got := map[string]server.RunListEntry{}
	for i, e := range list.Runs {
		got[e.ID] = e
		if i > 0 && list.Runs[i-1].ID >= e.ID {
			t.Fatalf("listing out of canonical order: %q before %q", list.Runs[i-1].ID, e.ID)
		}
	}
	for _, id := range ids {
		e, ok := got[id]
		if !ok {
			t.Fatalf("run %s missing from merged enumeration", id)
		}
		if e.Status != "cached" || e.Kind != "run" || e.Summary == "" {
			t.Fatalf("entry %+v: want cached run with a summary", e)
		}
	}

	// Pagination walks the same set.
	var paged []string
	after := ""
	for {
		path := "/v1/runs?limit=2"
		if after != "" {
			path += "&after=" + after
		}
		code, body := get(t, tc.front.URL, path)
		if code != http.StatusOK {
			t.Fatalf("paged list: status %d", code)
		}
		var page server.RunListResponse
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatal(err)
		}
		if len(page.Runs) > 2 {
			t.Fatalf("page holds %d entries, limit was 2", len(page.Runs))
		}
		for _, e := range page.Runs {
			paged = append(paged, e.ID)
		}
		if !page.Truncated {
			break
		}
		after = page.Runs[len(page.Runs)-1].ID
	}
	if len(paged) != len(list.Runs) {
		t.Fatalf("pagination yielded %d entries, full listing %d", len(paged), len(list.Runs))
	}
	for i, e := range list.Runs {
		if paged[i] != e.ID {
			t.Fatalf("pagination order diverges at %d: %q vs %q", i, paged[i], e.ID)
		}
	}
}

// TestEnumerationSummaryParity checks a workload-v2 run is summarized the
// same way through a coordinator and through a single hped: the phase
// schedule, not an empty app name.
func TestEnumerationSummaryParity(t *testing.T) {
	tc := newTestCluster(t, 2)
	const spec = `{"phases":"HOT:16,HSD:32,HOT:16","policy":"lru","rate":75}`
	code, body, _ := post(t, tc.front.URL, "/v1/runs", spec)
	if code != http.StatusOK {
		t.Fatalf("coordinator run: status %d: %s", code, body)
	}
	var rr server.RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	single := server.New(server.Config{Workers: 1})
	defer single.Close()
	ts := httptest.NewServer(single.Handler())
	defer ts.Close()
	if code, body, _ := post(t, ts.URL, "/v1/runs", spec); code != http.StatusOK {
		t.Fatalf("single-node run: status %d: %s", code, body)
	}

	summaryOf := func(base string) string {
		t.Helper()
		code, body := get(t, base, "/v1/runs")
		if code != http.StatusOK {
			t.Fatalf("list %s: status %d: %s", base, code, body)
		}
		var list server.RunListResponse
		if err := json.Unmarshal(body, &list); err != nil {
			t.Fatal(err)
		}
		for _, e := range list.Runs {
			if e.ID == rr.ID {
				return e.Summary
			}
		}
		t.Fatalf("%s does not list run %s", base, rr.ID)
		return ""
	}
	viaCoord, direct := summaryOf(tc.front.URL), summaryOf(ts.URL)
	if viaCoord != direct || !strings.HasPrefix(direct, "phases:") {
		t.Fatalf("summaries differ: coordinator %q, single node %q", viaCoord, direct)
	}
}

// --- surface parity ------------------------------------------------------

func TestCatalogParity(t *testing.T) {
	tc := newTestCluster(t, 1)
	for _, path := range []string{"/v1/policies", "/v1/apps", "/v1/scenarios"} {
		code, viaCoord := get(t, tc.front.URL, path)
		if code != http.StatusOK {
			t.Fatalf("coordinator %s: status %d", path, code)
		}
		code, direct := get(t, tc.backends[0].ts.URL, path)
		if code != http.StatusOK {
			t.Fatalf("backend %s: status %d", path, code)
		}
		if !bytes.Equal(viaCoord, direct) {
			t.Fatalf("%s differs between coordinator and backend", path)
		}
	}
}

func TestBadSpecEnvelopeParity(t *testing.T) {
	tc := newTestCluster(t, 1)
	const bad = `{"app":"NOPE","policy":"lru","rate":75}`
	code, viaCoord, _ := post(t, tc.front.URL, "/v1/runs", bad)
	code2, direct, _ := post(t, tc.backends[0].ts.URL, "/v1/runs", bad)
	if code != http.StatusBadRequest || code2 != http.StatusBadRequest {
		t.Fatalf("statuses %d/%d, want 400/400", code, code2)
	}
	ec, ok1 := server.DecodeError(viaCoord)
	ed, ok2 := server.DecodeError(direct)
	if !ok1 || !ok2 || ec.Code != server.ErrBadSpec || ed.Code != server.ErrBadSpec {
		t.Fatalf("envelopes %+v / %+v, want bad_spec on both layers", ec, ed)
	}
}

func TestClusterMetricsExposition(t *testing.T) {
	tc := newTestCluster(t, 2)
	code, body, _ := post(t, tc.front.URL, "/v1/runs", `{"app":"HOT","policy":"lru","rate":75}`)
	if code != http.StatusOK {
		t.Fatalf("run: status %d: %s", code, body)
	}
	code, metrics := get(t, tc.front.URL, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	text := string(metrics)
	for _, want := range []string{
		"hped_cluster_shards_total",
		"hped_cluster_spilled_total",
		"hped_cluster_redispatched_total",
		"hped_cluster_backend_up",
		"hped_cluster_backend_capacity_rps",
		"hped_cluster_capacity_rps",
		"hped_cluster_backends_live 2",
		"hped_cluster_shard_latency_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// One shard completed: the saturation analyzer has an estimate now.
	sat := tc.coord.Saturation()
	if sat.Live != 2 || sat.ClusterRPS <= 0 {
		t.Fatalf("saturation after one shard: %+v", sat)
	}
}

// --- soak ----------------------------------------------------------------

// TestCoordinatorSoak hammers the coordinator's full surface concurrently;
// run under -race it is the cluster's data-race canary.
func TestCoordinatorSoak(t *testing.T) {
	tc := newTestCluster(t, 3)
	specs := []string{
		`{"app":"HOT","policy":"lru","rate":75}`,
		`{"app":"STN","policy":"lru","rate":75}`,
		`{"app":"HOT","policy":"hpe","rate":50}`,
		`{"app":"SGM","policy":"clockpro","rate":75}`,
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				switch (g + i) % 4 {
				case 0, 1:
					code, body, _ := post(t, tc.front.URL, "/v1/runs", specs[(g+i)%len(specs)])
					if code != http.StatusOK {
						errs <- fmt.Errorf("run status %d: %s", code, body)
					}
				case 2:
					if code, _ := get(t, tc.front.URL, "/v1/runs?limit=10"); code != http.StatusOK {
						errs <- fmt.Errorf("list status %d", code)
					}
				case 3:
					if code, _ := get(t, tc.front.URL, "/metrics"); code != http.StatusOK {
						errs <- fmt.Errorf("metrics status %d", code)
					}
				}
			}
		}(g)
	}
	// Meanwhile the health loop keeps probing and one backend flaps.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			tc.backends[2].pause()
			time.Sleep(120 * time.Millisecond)
			tc.backends[2].resume()
			time.Sleep(120 * time.Millisecond)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Every idle claim and window slot came back: with no request open,
	// no shard is in flight anywhere.
	for _, s := range tc.coord.snapshots() {
		if s.Inflight != 0 {
			t.Errorf("backend %s: %d shards in flight after the soak", s.Name, s.Inflight)
		}
	}
}
