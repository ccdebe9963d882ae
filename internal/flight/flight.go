// Package flight deduplicates identical in-flight computations for the
// serving layers: when N clients submit the same content-addressed ID
// concurrently, one computation runs and all N receive its bytes. The hped
// backend coalesces simulations with it; the cluster coordinator coalesces
// merged suite sweeps. The computation executes on its own goroutine under a
// context that stays alive while at least one waiter is listening (or the
// owning server is running), so a leader that disconnects does not kill work
// other clients still want — and when the last waiter goes away the
// computation is cancelled mid-flight instead of burning cycles for nobody.
// Each flight carries a short label (hped stores the run's enumeration
// summary) that lives exactly as long as the flight does.
//
// Memo is the in-process sibling: a singleflight memo table whose values
// outlive the computation (the experiment suite's results, runspec.Cache's
// traces and future indexes).
package flight

import (
	"context"
	"sort"
	"sync"
)

// Group owns a set of keyed in-flight computations.
type Group struct {
	mu        sync.Mutex
	calls     map[string]*call // guarded by mu
	coalesced uint64           // guarded by mu
}

// call is one in-flight computation.
type call struct {
	done    chan struct{} // closed when body/err are final
	meta    string        // immutable label
	body    []byte
	err     error
	waiters int
	cancel  context.CancelFunc // cancels the computation's context
}

// NewGroup builds an empty Group.
func NewGroup() *Group {
	return &Group{calls: make(map[string]*call)}
}

// Do returns the computation's result for id, starting compute at most once
// across concurrent callers. base bounds the computation's lifetime (server
// shutdown); ctx is this caller's interest (client disconnect, timeout);
// meta labels a flight this call starts. The returned bool reports whether
// this caller coalesced onto an existing flight rather than starting one.
func (c *Group) Do(ctx, base context.Context, id, meta string,
	compute func(context.Context) ([]byte, error)) ([]byte, bool, error) {
	c.mu.Lock()
	if cl, ok := c.calls[id]; ok {
		cl.waiters++
		c.coalesced++
		c.mu.Unlock()
		return c.wait(ctx, cl, true)
	}
	runCtx, cancel := context.WithCancel(base)
	cl := &call{done: make(chan struct{}), meta: meta, waiters: 1, cancel: cancel}
	c.calls[id] = cl
	c.mu.Unlock()

	go func() {
		defer cancel()
		body, err := computeSafely(runCtx, compute)
		c.mu.Lock()
		cl.body, cl.err = body, err
		delete(c.calls, id)
		c.mu.Unlock()
		close(cl.done)
	}()
	return c.wait(ctx, cl, false)
}

// computeSafely converts a panicking computation into an error so a bad run
// cannot take the daemon down from a detached goroutine.
func computeSafely(ctx context.Context, compute func(context.Context) ([]byte, error)) (body []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			body, err = nil, &panicError{val: p}
		}
	}()
	return compute(ctx)
}

// panicError wraps a recovered panic value.
type panicError struct{ val any }

func (e *panicError) Error() string { return "computation panicked" }

// wait blocks until the call completes or the caller loses interest. The
// last departing waiter cancels the computation.
func (c *Group) wait(ctx context.Context, cl *call, coalesced bool) ([]byte, bool, error) {
	select {
	case <-cl.done:
		return cl.body, coalesced, cl.err
	case <-ctx.Done():
		c.mu.Lock()
		cl.waiters--
		abandoned := cl.waiters == 0
		c.mu.Unlock()
		if abandoned {
			cl.cancel()
		}
		return nil, coalesced, ctx.Err()
	}
}

// Inflight reports whether id is currently being computed and for how many
// waiters (GET /v1/runs/{id} status).
func (c *Group) Inflight(id string) (waiters int, running bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl, ok := c.calls[id]
	if !ok {
		return 0, false
	}
	return cl.waiters, true
}

// Entry is one in-flight computation's ID and label.
type Entry struct {
	ID, Meta string
}

// Entries returns every in-flight computation in canonical (lexicographic)
// ID order — the enumeration order GET /v1/runs paginates in.
func (c *Group) Entries() []Entry {
	c.mu.Lock()
	out := make([]Entry, 0, len(c.calls))
	for id, cl := range c.calls {
		out = append(out, Entry{ID: id, Meta: cl.meta})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Coalesced returns the number of requests that joined an existing flight.
func (c *Group) Coalesced() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.coalesced
}
