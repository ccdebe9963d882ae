package experiments

// Concurrent suite runner: a worker-pool scheduler that shards the
// (app, policy, rate, variant) run matrix across Options.Workers goroutines.
// Every simulation is deterministic and keyed, and report aggregation walks
// the caches in canonical order, so parallel execution is byte-identical to
// serial execution (TestParallelMatchesSerial is the contract). Workers == 1
// bypasses every goroutine and channel — the debugging path.

import (
	"context"
	"fmt"
	"sync"

	"hpe/internal/runspec"
)

// workers normalizes Options.Workers: anything below 1 means serial.
func (s *Suite) workers() int {
	if s.opts.Workers < 1 {
		return 1
	}
	return s.opts.Workers
}

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

// grid enumerates the standard matrix every figure draws from: the Fig. 12
// comparison policies at both oversubscription rates, over the suite's
// catalog, in canonical order.
func (s *Suite) grid() []runspec.Spec {
	specs := make([]runspec.Spec, 0, len(s.apps)*len(ComparisonPolicies)*len(Rates))
	for _, app := range s.apps {
		for _, policy := range ComparisonPolicies {
			for _, rate := range Rates {
				specs = append(specs, s.spec(app, policy, rate))
			}
		}
	}
	return specs
}

// Prewarm fills the standard run grid concurrently with the given worker
// count, so subsequent experiment functions hit the cache. Each simulation
// is independent and deterministic and lands in the singleflight-guarded
// cache, so the merged results are identical to a serial run. workers ≤ 1
// is a no-op (the experiments will compute runs on demand instead).
func (s *Suite) Prewarm(workers int) {
	if workers <= 1 {
		return
	}
	specs := s.grid()
	_ = runPool(s.ctx(), workers, len(specs), func(i int) {
		s.RunSpec(specs[i])
	})
}

// Reports runs the experiments with the given IDs and returns their reports
// in the same order. Unknown IDs fail before anything runs. With
// Options.Workers > 1 the standard run matrix is sharded across a worker
// pool first (the bulk of the simulation work), then the experiment
// functions themselves execute concurrently — their variant runs deduplicate
// through the singleflight cache, so shared cells are still simulated once.
// Aggregation order is the ids slice, and each report is assembled from
// cached results in canonical catalog order, so output is byte-identical to
// Workers == 1. When Options.Context is cancelled mid-run the pool drains
// deterministically and Reports returns the context's error with no reports
// (partial aggregates are never surfaced).
func (s *Suite) Reports(ids []string) ([]Report, error) {
	fns := make([]func() Report, len(ids))
	for i, id := range ids {
		fn, ok := s.experiment(id)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q", id)
		}
		fns[i] = fn
	}
	if w := s.workers(); w > 1 {
		s.Prewarm(w)
	}
	out := make([]Report, len(ids))
	if err := runPool(s.ctx(), s.workers(), len(ids), func(i int) { out[i] = fns[i]() }); err != nil {
		return nil, err
	}
	return out, nil
}
