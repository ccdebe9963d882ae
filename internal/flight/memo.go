package flight

import (
	"maps"
	"sync"
)

// Memo is a goroutine-safe memo table with singleflight deduplication: the
// in-process counterpart of Group for values that live as long as their
// owner (a suite's simulation results, a runspec.Cache's traces and future
// indexes). The zero Memo is empty and ready to use.
type Memo[K comparable, V any] struct {
	mu   sync.Mutex
	vals map[K]V            // guarded by mu
	wip  map[K]*memoCall[V] // guarded by mu
}

// memoCall is one in-progress computation. The goroutine that claims a key
// computes the value; later arrivals block on done and read val. ok
// distinguishes a completed computation from one that panicked; cacheable
// records the compute function's verdict on whether the value may be
// published (a cancelled, partial simulation must not be).
type memoCall[V any] struct {
	done      chan struct{}
	val       V
	ok        bool
	cacheable bool
}

// Do returns the memoized value for key, computing it at most once across
// concurrent callers: the first goroutine to ask runs compute with the lock
// released, every other goroutine blocks until the value is published.
// compute's second return value decides whether the result enters the memo —
// an uncacheable result (e.g. a simulation cut short by cancellation) is
// still handed to this round's waiters but is never visible to later
// callers, who recompute. The publication decision and the memo write happen
// under one critical section, so there is no window in which an uncacheable
// value can be observed. The returned bool reports whether this caller did
// the computing (callers use it to emit progress exactly once per cell). If
// compute panics, the panic propagates to the computing caller and waiters
// retry the computation themselves.
func (m *Memo[K, V]) Do(key K, compute func() (V, bool)) (V, bool) {
	m.mu.Lock()
	for {
		if v, ok := m.vals[key]; ok {
			m.mu.Unlock()
			return v, false
		}
		c, ok := m.wip[key]
		if !ok {
			break
		}
		m.mu.Unlock()
		<-c.done
		if c.ok {
			return c.val, false
		}
		m.mu.Lock() // the computing goroutine panicked: try to claim the key ourselves
	}
	if m.wip == nil {
		m.vals = make(map[K]V)
		m.wip = make(map[K]*memoCall[V])
	}
	c := &memoCall[V]{done: make(chan struct{})}
	m.wip[key] = c
	m.mu.Unlock()

	defer func() {
		m.mu.Lock()
		if c.ok && c.cacheable {
			m.vals[key] = c.val
		}
		delete(m.wip, key)
		m.mu.Unlock()
		close(c.done)
	}()
	c.val, c.cacheable = compute()
	c.ok = true
	return c.val, true
}

// Len reports how many values the memo holds.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.vals)
}

// Snapshot returns a copy of the memoized values.
func (m *Memo[K, V]) Snapshot() map[K]V {
	m.mu.Lock()
	defer m.mu.Unlock()
	return maps.Clone(m.vals)
}
