// Package respcache is the content-addressed response cache shared by the
// hped backend and the cluster coordinator: an LRU over rendered response
// bodies keyed by run ID, bounded by a byte budget rather than an entry
// count (a suite sweep's body is thousands of times larger than a single
// run's). Because IDs are content addresses of canonicalized requests and
// every simulation is deterministic, a hit is byte-identical to what a fresh
// simulation would render — the cache can never serve a stale or wrong body,
// only save the minutes it would take to recompute one. Each entry carries a
// short caller-supplied label (hped stores the run's enumeration summary), so
// a listing needs no side index that could outlive the entry.
package respcache

import (
	"container/list"
	"sort"
	"sync"
)

// Cache is the byte-budget LRU. Construct with New; safe for concurrent use.
type Cache struct {
	mu     sync.Mutex
	budget int64                    // immutable after construction
	bytes  int64                    // guarded by mu
	ll     *list.List               // guarded by mu; front = most recently used
	items  map[string]*list.Element // guarded by mu

	hits, misses, evictions uint64 // guarded by mu
}

type cacheEntry struct {
	id   string
	meta string
	body []byte
}

// New builds a cache with the given byte budget. A budget <= 0 disables
// caching (every Get misses, Put is a no-op).
func New(budget int64) *Cache {
	return &Cache{
		budget: budget,
		ll:     list.New(),
		items:  make(map[string]*list.Element),
	}
}

// Get returns the cached body for id, marking it most recently used.
func (c *Cache) Get(id string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[id]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// Put inserts body under id with its label meta, evicting least-recently-used
// entries until the byte budget holds. A body larger than the whole budget is
// not cached. Callers must not mutate body after handing it over.
func (c *Cache) Put(id string, body []byte, meta string) {
	if int64(len(body)) > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[id]; ok {
		// Deterministic results make re-insertion a no-op byte-wise; just
		// refresh recency, and fill in a label the first insertion lacked.
		c.ll.MoveToFront(el)
		if meta != "" {
			el.Value.(*cacheEntry).meta = meta
		}
		return
	}
	c.ll.PushFront(&cacheEntry{id: id, meta: meta, body: body})
	c.items[id] = c.ll.Front()
	c.bytes += int64(len(body))
	for c.bytes > c.budget {
		oldest := c.ll.Back()
		if oldest == nil {
			break
		}
		ent := oldest.Value.(*cacheEntry)
		c.ll.Remove(oldest)
		delete(c.items, ent.id)
		c.bytes -= int64(len(ent.body))
		c.evictions++
	}
}

// Entry is one cached ID and the label it was stored under.
type Entry struct {
	ID, Meta string
}

// Entries returns every cached entry in canonical (lexicographic) ID order —
// the enumeration order GET /v1/runs paginates in.
func (c *Cache) Entries() []Entry {
	c.mu.Lock()
	out := make([]Entry, 0, len(c.items))
	for id, el := range c.items {
		out = append(out, Entry{ID: id, Meta: el.Value.(*cacheEntry).meta})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats is a point-in-time snapshot for /metrics and shutdown logging.
type Stats struct {
	Entries   int
	Bytes     int64
	Budget    int64
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// Snapshot reads the cache counters.
func (c *Cache) Snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:   len(c.items),
		Bytes:     c.bytes,
		Budget:    c.budget,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
