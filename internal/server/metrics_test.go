package server

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"hpe/internal/promtext"
	"hpe/internal/respcache"
)

// lockProbeWriter observes, at every Write, whether the metrics mutex is
// held. render must have released it before the first byte heads for the
// response writer — a slow scraper must not stall the request path
// (hpelint/lockorder).
type lockProbeWriter struct {
	mu       *sync.Mutex
	out      strings.Builder
	wrote    bool
	heldLock bool
}

func (p *lockProbeWriter) Write(b []byte) (int, error) {
	p.wrote = true
	if p.mu.TryLock() {
		p.mu.Unlock()
	} else {
		p.heldLock = true
	}
	return p.out.Write(b)
}

func TestRenderReleasesLockBeforeWriting(t *testing.T) {
	m := newServerMetrics()
	m.observeRequest("run_submit", 200)
	m.runStarted()
	m.runFinished(10*time.Millisecond, nil, false)
	m.observeCachedHit(time.Millisecond)

	pw := &lockProbeWriter{mu: &m.mu}
	m.render(promtext.New(pw), respcache.Stats{Hits: 3, Misses: 1}, 2)

	if !pw.wrote {
		t.Fatal("render wrote nothing")
	}
	if pw.heldLock {
		t.Error("render held serverMetrics.mu during a response write; snapshot state and render outside the lock")
	}
	for _, want := range []string{
		`hped_requests_total{route_code="run_submit 200"} 1`,
		"hped_runs_started_total 1",
		"hped_runs_completed_total 1",
		"hped_cache_hits_total 3",
		"hped_runs_coalesced_total 2",
	} {
		if !strings.Contains(pw.out.String(), want) {
			t.Errorf("render output missing %q", want)
		}
	}
}

// A nil counter map (maps.Clone returns nil for nil) renders the same
// /metrics text as an empty one: the family header and no series.
func TestRenderNilCountsMatchesEmpty(t *testing.T) {
	var nilOut, emptyOut strings.Builder
	(&serverMetrics{}).render(promtext.New(&nilOut), respcache.Stats{}, 0)
	newServerMetrics().render(promtext.New(&emptyOut), respcache.Stats{}, 0)
	if nilOut.String() != emptyOut.String() {
		t.Errorf("nil requests map renders\n%s\nempty map renders\n%s", nilOut.String(), emptyOut.String())
	}
}

// The local executor's families (queue gauges, simulator events) follow the
// same rule as the shared ones: snapshot under simMu, write outside it.
func TestLocalMetricsReleaseLockBeforeWriting(t *testing.T) {
	l := New(Config{Workers: 1, QueueDepth: 1}).x.(*local)
	release, err := l.adm.admit(context.Background())
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	defer release()
	// A cancelled second admission gives up its queue position; occupy it
	// directly instead so the gauge reads one queued computation.
	l.adm.tokens <- struct{}{}
	defer func() { <-l.adm.tokens }()
	if _, err := l.adm.admit(context.Background()); err != errQueueFull {
		t.Fatalf("third admission: err = %v, want errQueueFull", err)
	}
	l.simEvents["fault_end"] = 7

	pw := &lockProbeWriter{mu: &l.simMu}
	l.Metrics(promtext.New(pw))

	if !pw.wrote {
		t.Fatal("Metrics wrote nothing")
	}
	if pw.heldLock {
		t.Error("Metrics held local.simMu during a response write; snapshot state and render outside the lock")
	}
	for _, want := range []string{
		"hped_queue_depth 1",
		"hped_running 1",
		"hped_queue_rejected_total 1",
		`hped_sim_events_total{kind="fault_end"} 7`,
	} {
		if !strings.Contains(pw.out.String(), want) {
			t.Errorf("Metrics output missing %q", want)
		}
	}
}
