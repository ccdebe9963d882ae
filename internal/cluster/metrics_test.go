package cluster

import (
	"strings"
	"sync"
	"testing"
	"time"

	"hpe/internal/promtext"
)

// lockProbeWriter observes, at every Write, whether the metrics mutex is
// held. render must have released it before the first byte heads for the
// response writer — a slow scraper must not stall shard bookkeeping
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

func TestClusterRenderReleasesLockBeforeWriting(t *testing.T) {
	m := newClusterMetrics()
	m.shardDone("b1", 5*time.Millisecond)
	m.redispatch()
	m.spill()
	m.spill()

	pw := &lockProbeWriter{mu: &m.mu}
	m.render(promtext.New(pw), nil, Saturation{})

	if !pw.wrote {
		t.Fatal("render wrote nothing")
	}
	if pw.heldLock {
		t.Error("render held clusterMetrics.mu during a response write; snapshot state and render outside the lock")
	}
	for _, want := range []string{
		`hped_cluster_shards_total{backend="b1"} 1`,
		"hped_cluster_redispatched_total 1",
		"hped_cluster_spilled_total 2",
	} {
		if !strings.Contains(pw.out.String(), want) {
			t.Errorf("render output missing %q", want)
		}
	}
}

// A nil shard map (maps.Clone returns nil for nil) renders the same /metrics
// text as an empty one: the family header and no series.
func TestClusterRenderNilShardsMatchesEmpty(t *testing.T) {
	var nilOut, emptyOut strings.Builder
	(&clusterMetrics{}).render(promtext.New(&nilOut), nil, Saturation{})
	newClusterMetrics().render(promtext.New(&emptyOut), nil, Saturation{})
	if nilOut.String() != emptyOut.String() {
		t.Errorf("nil shards map renders\n%s\nempty map renders\n%s", nilOut.String(), emptyOut.String())
	}
}
