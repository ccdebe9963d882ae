package experiments

// The suite's one scheduler. TestParallelMatchesSerial is its contract:
// reports are byte-identical at any worker count.

import (
	"context"
	"fmt"
	"sync"

	"hpe/internal/gpu"
	"hpe/internal/runspec"
)

// runPool executes fn(0..n-1) across at most `workers` goroutines. With one
// worker (or one job) it degenerates to a plain loop on the calling
// goroutine — no channels, no goroutines.
//
// Teardown is deterministic in both failure modes:
//
//   - Cancellation: when ctx is done the feeder stops handing out indices,
//     in-flight fn calls finish (their simulations observe the same ctx and
//     stop at the next poll), every worker exits, and runPool returns
//     ctx.Err(). No goroutine is left blocked on the feed channel.
//   - Panic: a panicking fn no longer kills the process from inside a worker
//     (which would strand the feeder blocked on `next <-` with no receiver
//     during crash unwinding). The first panic value is captured, remaining
//     work is abandoned, all workers drain, and the panic is re-raised on
//     the calling goroutine once the pool is quiescent.
func runPool(ctx context.Context, workers, n int, fn func(int)) error {
	if workers > n {
		workers = n
	}
	done := ctx.Done()
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if done != nil {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
			fn(i)
		}
		return nil
	}
	next := make(chan int)
	stop := make(chan struct{}) // closed by the first panicking worker
	var stopOnce sync.Once
	var panicMu sync.Mutex
	var panicked bool
	var panicVal any
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				func() {
					defer func() {
						if p := recover(); p != nil {
							panicMu.Lock()
							if !panicked {
								panicked, panicVal = true, p
							}
							panicMu.Unlock()
							stopOnce.Do(func() { close(stop) })
						}
					}()
					fn(i)
				}()
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		//lint:ignore hpelint/determinism which worker takes which index never reaches output: results land in canonical-order aggregation (parallel_test.go proves 1-vs-8 worker byte identity)
		select {
		case next <- i:
		case <-stop:
			break feed
		case <-done:
			break feed
		}
	}
	close(next)
	wg.Wait()
	if panicked {
		panic(panicVal)
	}
	return ctx.Err()
}

// Reports renders the experiments with the given IDs, in that order. Unknown
// IDs fail before anything runs. It takes the union of their plans, deduped
// by content address in order of first appearance, simulates the cells the
// Suite has not memoized through one pool of Options.Workers goroutines
// (Workers ≤ 1 is a plain loop: the debugging path), then renders from the
// results alone. The first Runner error or a cancelled Options.Context
// drains the pool and fails Reports: partial aggregates never surface.
func (s *Suite) Reports(ids []string) ([]Report, error) {
	exps := make([]experiment, len(ids))
	for i, id := range ids {
		e, ok := lookup(id)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q", id)
		}
		exps[i] = e
	}
	var specs []runspec.Spec
	var cellIDs []string
	seen := map[string]bool{}
	for _, e := range exps {
		if e.plan == nil {
			continue
		}
		for _, sp := range e.plan(s) {
			if c, id := canonical(sp); !seen[id] {
				seen[id] = true
				specs, cellIDs = append(specs, c), append(cellIDs, id)
			}
		}
	}

	// Only a Runner can fail a cell; without one the context stays exactly
	// Options.Context, so an unset one keeps the unpolled fast path.
	ctx, cancel := s.ctx(), context.CancelFunc(func() {})
	if s.opts.Runner != nil {
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
	}
	var failOnce sync.Once
	var failed error
	err := runPool(ctx, max(s.opts.Workers, 1), len(specs), func(i int) {
		if _, err := s.run(ctx, specs[i], cellIDs[i]); err != nil {
			failOnce.Do(func() {
				failed = fmt.Errorf("experiments: cell %s: %w", specs[i].Slug(), err)
				cancel()
			})
		}
	})
	if failed != nil {
		err = failed
	}
	if err != nil {
		return nil, err
	}

	memo := s.results.Snapshot()
	res := view{s: s, cells: make(map[string]gpu.Result, len(specs))}
	for i, id := range cellIDs {
		r, ok := memo[id]
		if !ok {
			return nil, fmt.Errorf("experiments: cell %s (%s) has no result", specs[i].Slug(), id)
		}
		res.cells[id] = r
	}
	out := make([]Report, len(exps))
	for i, e := range exps {
		out[i] = e.render(s, res)
	}
	return out, nil
}
