package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"hpe"
	"hpe/internal/server"
)

// Shard dispatch: one run spec travels to a backend chosen from its content
// address's ring sequence, with bounded retry and re-dispatch when a backend
// is dead, broken, or failing. Each attempt round is idle-first: the first
// usable backend in ring order with an idle worker is claimed and tried
// first — the owner when it has one, so a shard spills past its owner only
// while the owner is busy and another backend idles (the bounded-load
// variant of consistent hashing, with a backend's capacity set to its
// reported workers). With no idle worker anywhere the walk is the ring's
// preference sequence, owner first, filtered to usable backends at attempt
// time — so "handle backend loss" is not a special code path: a dead owner
// is simply skipped and the shard lands on the next backend clockwise.

// errNoBackends reports a shard that exhausted every attempt without finding
// a backend able to run it.
var errNoBackends = errors.New("no usable backend")

// specFailure is a backend's 500 `internal` envelope naming the shard's own
// run ID: the simulation of that spec failed. A spec that fails the same
// way everywhere (a simulator panic it reaches) says nothing about the
// backend, so dispatchRun holds the breaker charge until a second backend
// has answered the same spec.
type specFailure struct{ env *server.Error }

func (f *specFailure) Error() string { return f.env.Error() }

// dispatchRun executes one run spec on the cluster and returns the answering
// backend's response body verbatim (a server.RunResponse) along with the
// Result decoded from it. Determinism makes any backend's bytes THE bytes,
// so the coordinator can cache and serve them unmodified.
func (c *Coordinator) dispatchRun(ctx context.Context, sp hpe.RunSpec, id string) ([]byte, hpe.Result, error) {
	specBody, err := json.Marshal(sp)
	if err != nil {
		return nil, hpe.Result{}, fmt.Errorf("encode spec: %w", err)
	}
	seq := c.ring.sequence(id)
	backoff := c.cfg.BackoffBase
	var lastErr error
	// held is the backend whose spec failure awaits a second opinion. It is
	// charged when the shard's dispatch ends any other way than with the
	// same failure from another backend.
	var held *backend
	defer func() {
		if held != nil {
			held.recordFailure(time.Now(), c.cfg.BreakerThreshold, c.cfg.BreakerCooldown)
		}
	}()
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			// Deterministic exponential backoff between rounds; per-backend
			// windows already smear concurrent shards, so no jitter source
			// (and no RNG) is needed.
			if err := sleepCtx(ctx, backoff); err != nil {
				return nil, hpe.Result{}, err
			}
			if backoff *= 2; backoff > c.cfg.BackoffMax {
				backoff = c.cfg.BackoffMax
			}
		}
		tried := 0
		order, claimed := c.idleFirst(seq)
		for i, name := range order {
			b := c.backends[name]
			idle := claimed && i == 0
			if !idle && !b.usable(time.Now(), c.cfg.BreakerThreshold) {
				continue
			}
			switch {
			case attempt > 0 || tried > 0:
				c.met.redispatch() // an earlier attempt failed
			case name == seq[0]: // the owner, first try: neither
			case c.backends[seq[0]].usable(time.Now(), c.cfg.BreakerThreshold):
				c.met.spill() // the owner is busy, this backend idle
			default:
				c.met.redispatch() // the owner is dead or its breaker open
			}
			tried++
			body, res, retryAfter, err := c.tryBackend(ctx, b, specBody, id, idle)
			if err == nil {
				return body, res, nil
			}
			var perm *server.Error
			if errors.As(err, &perm) {
				return nil, hpe.Result{}, err
			}
			var sf *specFailure
			if errors.As(err, &sf) {
				switch {
				case held == nil:
					held = b
				case held != b:
					// Two backends failed the same spec the same way: the
					// spec is at fault, neither backend is.
					held = nil
					return nil, hpe.Result{}, sf.env
				default: // the same backend again is no second opinion
					b.recordFailure(time.Now(), c.cfg.BreakerThreshold, c.cfg.BreakerCooldown)
				}
			}
			if ctx.Err() != nil {
				return nil, hpe.Result{}, ctx.Err()
			}
			lastErr = fmt.Errorf("%s: %w", b.name, err)
			if retryAfter > 0 {
				// Backpressure, not death: the backend asked us to pace.
				// Honor its hint (bounded) before the next attempt instead
				// of hammering the rest of the ring with a shard that will
				// queue anyway.
				if retryAfter > c.cfg.BackoffMax {
					retryAfter = c.cfg.BackoffMax
				}
				if err := sleepCtx(ctx, retryAfter); err != nil {
					return nil, hpe.Result{}, err
				}
			}
		}
		if tried == 0 {
			lastErr = errNoBackends
		}
	}
	if lastErr == nil {
		lastErr = errNoBackends
	}
	return nil, hpe.Result{}, fmt.Errorf("shard %s: %w", id, lastErr)
}

// idleFirst claims the first usable backend in seq with an idle worker and
// returns seq with that backend moved to the front; claimed reports whether
// there was one. The claim is the caller's to pass to tryBackend.
func (c *Coordinator) idleFirst(seq []string) (order []string, claimed bool) {
	now := time.Now()
	for i, name := range seq {
		if !c.backends[name].claimIdle(now, c.cfg.BreakerThreshold) {
			continue
		}
		if i == 0 {
			return seq, true
		}
		order = make([]string, 0, len(seq))
		order = append(append(append(order, name), seq[:i]...), seq[i+1:]...)
		return order, true
	}
	return seq, false
}

// tryBackend runs one attempt against one backend; claimed reports that
// idleFirst already counted the shard in flight there. A 200 body is outside
// input, so it is decoded in full and its ID checked against the shard's
// before it counts; a body that fails either check is charged to the
// breaker like a 5xx, and its decoded Result is returned with the raw bytes
// so no caller decodes them again. A positive retryAfter
// reports backpressure (429/503 with a Retry-After hint); err then describes
// the rejection. A 4xx is permanent — the request itself is wrong — and
// comes back as a *server.Error carrying the backend's own status and
// envelope, which the handler set relays verbatim. Transport failures and
// 5xx responses are charged to the breaker; backpressure and 4xx rejections
// are not (the backend is healthy — it is full, or the request is wrong).
// A 500 `internal` envelope naming the shard's run ID is not charged here
// either: it comes back as a *specFailure for dispatchRun to judge.
func (c *Coordinator) tryBackend(ctx context.Context, b *backend, specBody []byte, id string, claimed bool) (body []byte, res hpe.Result, retryAfter time.Duration, err error) {
	release, err := b.acquire(ctx, claimed)
	if err != nil {
		return nil, res, 0, err
	}
	defer release()

	// A dispatch bound only by the caller's context would hang forever on a
	// backend that stops answering without closing connections (paused
	// process): tie this attempt to the backend's liveness, so the next
	// failed health probe abandons it and the ring walk takes over.
	rctx, rcancel := context.WithCancel(ctx)
	defer rcancel()
	defer b.watchDeath(rcancel)()

	req, err := http.NewRequestWithContext(rctx, http.MethodPost, b.name+"/v1/runs", bytes.NewReader(specBody))
	if err != nil {
		return nil, res, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		b.recordFailure(time.Now(), c.cfg.BreakerThreshold, c.cfg.BreakerCooldown)
		return nil, res, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		b.recordFailure(time.Now(), c.cfg.BreakerThreshold, c.cfg.BreakerCooldown)
		return nil, res, 0, err
	}

	switch {
	case resp.StatusCode == http.StatusOK:
		var rr server.RunResponse
		if err := json.Unmarshal(raw, &rr); err != nil {
			b.recordFailure(time.Now(), c.cfg.BreakerThreshold, c.cfg.BreakerCooldown)
			return nil, res, 0, fmt.Errorf("malformed run response: %w", err)
		}
		if rr.ID != id {
			b.recordFailure(time.Now(), c.cfg.BreakerThreshold, c.cfg.BreakerCooldown)
			return nil, res, 0, fmt.Errorf("backend answered run %s for shard %s", rr.ID, id)
		}
		d := time.Since(start)
		b.recordSuccess(d)
		c.met.shardDone(b.name, d)
		return raw, rr.Result, 0, nil

	case resp.StatusCode == http.StatusTooManyRequests ||
		resp.StatusCode == http.StatusServiceUnavailable:
		hint := time.Second
		if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
			hint = time.Duration(s) * time.Second
		}
		return nil, res, hint, fmt.Errorf("backend backpressure (%d)", resp.StatusCode)

	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		eb, ok := server.DecodeError(raw)
		if !ok {
			eb = server.ErrorBody{Code: server.ErrInternal, Message: string(raw)}
		}
		return nil, res, 0, &server.Error{Status: resp.StatusCode, Code: eb.Code, Msg: eb.Message, RunID: eb.RunID}

	default:
		if eb, ok := server.DecodeError(raw); ok && resp.StatusCode == http.StatusInternalServerError &&
			eb.Code == server.ErrInternal && eb.RunID == id {
			return nil, res, 0, &specFailure{&server.Error{Status: resp.StatusCode, Code: eb.Code, Msg: eb.Message, RunID: eb.RunID}}
		}
		b.recordFailure(time.Now(), c.cfg.BreakerThreshold, c.cfg.BreakerCooldown)
		return nil, res, 0, fmt.Errorf("backend status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
}

// maxResponseBytes bounds one backend response read (a full-catalog suite
// body is ~1 MiB; run bodies are a few KiB).
const maxResponseBytes = 64 << 20

// readAllLimited drains one bounded backend response body.
func readAllLimited(r io.Reader) ([]byte, error) {
	return io.ReadAll(io.LimitReader(r, maxResponseBytes))
}

// sleepCtx sleeps d or returns early with the context's error.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
