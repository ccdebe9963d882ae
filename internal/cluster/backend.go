package cluster

import (
	"context"
	"sync"
	"time"
)

// backend is the coordinator's view of one hped instance: liveness and
// capacity learned from /healthz, a circuit breaker fed by dispatch
// outcomes, a dispatch window bounding in-flight shards, a count of the
// shards in flight that idle-first placement reads, and the EWMA
// service-time estimate the saturation analyzer builds on. All mutable state
// sits behind one mutex; every hold is a few loads and stores, never I/O.
type backend struct {
	name string // base URL, immutable

	// threshold is the consecutive-failure count that opens the breaker,
	// and cooldown how long it then stays open (Config.BreakerThreshold
	// and BreakerCooldown); both immutable.
	threshold int
	cooldown  time.Duration

	mu      sync.Mutex
	alive   bool // guarded by mu; last health probe succeeded
	workers int  // guarded by mu; backend-reported simulation workers
	queue   int  // guarded by mu; backend-reported admission queue depth

	// sem is the dispatch window: one slot per shard the backend can hold
	// without rejecting (workers + queue, learned from /healthz). Slots are
	// acquired by sending and released by receiving from the captured
	// channel, so a window resize (rare) strands at most the old channel.
	sem chan struct{} // guarded by mu; replaced when the reported window changes

	// inflight counts this coordinator's shards in flight here. It is kept
	// apart from len(sem), which a window resize resets while the old
	// window's shards still run.
	inflight int // guarded by mu

	fails     int       // guarded by mu; consecutive dispatch failures
	openUntil time.Time // guarded by mu; breaker open until this instant

	// ewmaService is the exponentially-weighted mean observed service time
	// of one shard on this backend, in seconds; 0 before any observation.
	ewmaService float64 // guarded by mu

	dispatched   uint64 // guarded by mu; shards completed here
	failures     uint64 // guarded by mu; dispatch failures charged here
	breakerOpens uint64 // guarded by mu; closed→open transitions

	// watchers are the cancel functions of in-flight dispatches to this
	// backend; all fire when a health probe marks it dead, so a shard POSTed
	// to a backend that silently hangs (paused process, dead NIC) is
	// abandoned and re-dispatched instead of blocking its sweep forever.
	watchers  map[int]context.CancelFunc // guarded by mu
	nextWatch int                        // guarded by mu
}

const (
	// defaultWindow bounds in-flight shards per backend before the first
	// successful health probe reports the real workers+queue figure.
	defaultWindow = 4
	// ewmaAlpha weighs the newest service-time observation; ~0.2 settles in
	// a handful of shards without whiplashing on one outlier.
	ewmaAlpha = 0.2
)

func newBackend(name string, threshold int, cooldown time.Duration) *backend {
	return &backend{
		name:      name,
		threshold: threshold,
		cooldown:  cooldown,
		sem:       make(chan struct{}, defaultWindow),
		watchers:  make(map[int]context.CancelFunc),
	}
}

// watchDeath registers cancel to fire if the backend is marked dead while
// the caller's dispatch is in flight. The returned unwatch deregisters it.
func (b *backend) watchDeath(cancel context.CancelFunc) (unwatch func()) {
	b.mu.Lock()
	id := b.nextWatch
	b.nextWatch++
	b.watchers[id] = cancel
	b.mu.Unlock()
	return func() {
		b.mu.Lock()
		delete(b.watchers, id)
		b.mu.Unlock()
	}
}

// setHealth applies one health-probe outcome. A dead verdict abandons every
// in-flight dispatch (their shards re-dispatch elsewhere); a live one
// resizes the dispatch window to the reported workers+queue.
func (b *backend) setHealth(ok bool, workers, queue int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.alive = ok
	if !ok {
		for id, cancel := range b.watchers {
			cancel()
			delete(b.watchers, id)
		}
		return
	}
	b.workers, b.queue = workers, queue
	if want := workers + queue; want > 0 && want != cap(b.sem) {
		b.sem = make(chan struct{}, want)
	}
	// A live probe is evidence the instance is back: give the breaker a
	// fresh start so the next shard can try it.
	b.fails = 0
	b.openUntil = time.Time{}
}

// isAlive reports whether the last health probe succeeded.
func (b *backend) isAlive() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.alive
}

// usable reports whether the dispatcher may try this backend now: last
// health probe succeeded and the breaker is not open. An expired breaker
// deadline is the half-open state — the next shard probes the backend, and
// its outcome re-closes or re-opens the breaker.
func (b *backend) usable(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.usableLocked(now)
}

func (b *backend) usableLocked(now time.Time) bool {
	if !b.alive {
		return false
	}
	return b.fails < b.threshold || now.After(b.openUntil)
}

// claimIdle counts one shard in flight here if the backend is usable and
// has an idle worker: fewer of this coordinator's shards in flight than the
// workers its /healthz reports. Check and claim share one hold of mu, so two
// shards never claim the same idle worker. A claim is handed to acquire.
func (b *backend) claimIdle(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.usableLocked(now) || b.inflight >= b.workers {
		return false
	}
	b.inflight++
	return true
}

// acquire takes one dispatch-window slot, blocking until a slot frees, the
// context is cancelled, or the coordinator shuts down, and counts the shard
// in flight here unless claimIdle already has (claimed). The release
// closure returns the slot to the window the acquisition came from, so a
// concurrent resize cannot double-fill the new window.
func (b *backend) acquire(ctx context.Context, claimed bool) (release func(), err error) {
	b.mu.Lock()
	sem := b.sem
	b.mu.Unlock()
	select {
	case sem <- struct{}{}:
	case <-ctx.Done():
		if claimed {
			b.leave()
		}
		return nil, ctx.Err()
	}
	if !claimed {
		b.mu.Lock()
		b.inflight++
		b.mu.Unlock()
	}
	return func() { b.leave(); <-sem }, nil
}

// leave ends one shard in flight here.
func (b *backend) leave() {
	b.mu.Lock()
	b.inflight--
	b.mu.Unlock()
}

// recordSuccess folds one completed shard into the breaker (reset) and the
// saturation model (EWMA service time).
func (b *backend) recordSuccess(d time.Duration) {
	sec := d.Seconds()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	b.openUntil = time.Time{}
	b.dispatched++
	if b.ewmaService == 0 {
		b.ewmaService = sec
	} else {
		b.ewmaService = ewmaAlpha*sec + (1-ewmaAlpha)*b.ewmaService
	}
}

// recordFailure charges one dispatch failure; crossing the threshold opens
// the breaker for cooldown.
func (b *backend) recordFailure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	b.fails++
	if b.fails == b.threshold {
		b.openUntil = now.Add(b.cooldown)
		b.breakerOpens++
	} else if b.fails > b.threshold {
		// Half-open probe failed: re-open for another cooldown.
		b.openUntil = now.Add(b.cooldown)
	}
}

// backendSnapshot is the point-in-time view /metrics and the saturation
// analyzer render from.
type backendSnapshot struct {
	Name         string
	Alive        bool
	BreakerOpen  bool
	Workers      int
	Queue        int
	Inflight     int
	EWMAService  float64 // seconds per shard; 0 before any observation
	CapacityRPS  float64 // workers / EWMAService; 0 while unknown
	Dispatched   uint64
	Failures     uint64
	BreakerOpens uint64
}

// snapshot captures the backend's state at one instant.
func (b *backend) snapshot(now time.Time) backendSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := backendSnapshot{
		Name:         b.name,
		Alive:        b.alive,
		BreakerOpen:  b.fails >= b.threshold && now.Before(b.openUntil),
		Workers:      b.workers,
		Queue:        b.queue,
		Inflight:     b.inflight,
		EWMAService:  b.ewmaService,
		Dispatched:   b.dispatched,
		Failures:     b.failures,
		BreakerOpens: b.breakerOpens,
	}
	if b.ewmaService > 0 && b.workers > 0 {
		s.CapacityRPS = float64(b.workers) / b.ewmaService
	}
	return s
}
