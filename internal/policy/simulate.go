package policy

import (
	"context"
	"fmt"

	"hpe/internal/pagetable"
	"hpe/internal/probe"
	"hpe/internal/sim"
	"hpe/internal/trace"
)

// ReplayResult summarises a timing-free replay of a reference string
// against a policy: the demand-paging behaviour without the GPU's TLBs,
// warps, or latencies. Eviction-count comparisons (the paper's Figs. 3, 11,
// 12b) depend only on this level of the model; the full simulator in
// internal/gpu adds timing and TLB filtering on top.
type ReplayResult struct {
	Policy    string
	Refs      int
	Faults    uint64
	Evictions uint64
	Hits      uint64
	// Cancelled reports that the replay's context was cancelled before the
	// reference string drained; counters cover the replayed prefix only.
	Cancelled bool
}

// String renders the result as a one-line report.
func (r ReplayResult) String() string {
	return fmt.Sprintf("%-10s refs=%-8d faults=%-7d evictions=%-7d hits=%d",
		r.Policy, r.Refs, r.Faults, r.Evictions, r.Hits)
}

// Replay runs every reference of tr through the policy against a memory of
// capacityPages, evicting on demand. Every reference is visible to the
// policy (the paper's "ideal model" feed). The sequence number passed to the
// policy is the trace position.
func Replay(tr *trace.Trace, p Policy, capacityPages int) ReplayResult {
	//lint:ignore hpelint/ctxflow context-free convenience wrapper by design; callers needing cancellation use ReplayContext
	return ReplayContext(context.Background(), tr, p, capacityPages, nil)
}

// cancelPollRefs is how many references replay between context polls in
// ReplayContext — same rationale as the event engine's poll interval.
const cancelPollRefs = 4096

// ReplayContext is Replay tied to a context and an optional instrumentation
// probe. The replay loop polls ctx.Done() every cancelPollRefs references and
// stops early when it closes, marking the result Cancelled; a
// never-cancellable context (Background) keeps the exact unpolled fast path.
// Replay is timing-free, so events carry the trace position as their cycle
// (At = sim.Cycle(seq)): inter-arrival histograms then measure reference
// distance rather than simulated time. A nil probe keeps the unprobed fast
// path.
func ReplayContext(ctx context.Context, tr *trace.Trace, p Policy, capacityPages int, pr probe.Probe) ReplayResult {
	if capacityPages <= 0 {
		panic(fmt.Sprintf("policy: Replay capacity %d must be positive", capacityPages))
	}
	done := ctx.Done()
	resident := pagetable.New[struct{}]()
	res := ReplayResult{Policy: p.Name(), Refs: tr.Len()}
	for seq, page := range tr.Refs {
		if done != nil && seq%cancelPollRefs == cancelPollRefs-1 {
			select {
			case <-done:
				res.Cancelled = true
				return res
			default:
			}
		}
		if _, ok := resident.Get(page); ok {
			res.Hits++
			p.OnWalkHit(page, seq)
			if pr != nil {
				pr.Emit(probe.WalkHit(sim.Cycle(seq), 0, page, seq))
			}
			continue
		}
		res.Faults++
		p.OnFault(page, seq)
		if pr != nil {
			pr.Emit(probe.FaultBegin(sim.Cycle(seq), page, seq, 0))
		}
		if resident.Len() >= capacityPages {
			victim := p.SelectVictim()
			if !resident.Delete(victim) {
				panic(fmt.Sprintf("policy: %s selected non-resident victim %v", p.Name(), victim))
			}
			p.OnEvicted(victim)
			res.Evictions++
			if pr != nil {
				pr.Emit(probe.Eviction(sim.Cycle(seq), victim, page))
			}
		}
		resident.Put(page, struct{}{})
		p.OnMapped(page, seq)
		if pr != nil {
			pr.Emit(probe.FaultEnd(sim.Cycle(seq), page, seq, 0, false))
		}
	}
	return res
}
