package hpe

import (
	"math"

	"hpe/internal/addrspace"
	"hpe/internal/pagetable"
)

// evictionFIFO is one of the per-strategy FIFO buffers of §IV-E: it holds
// the virtual page addresses evicted by that strategy over (at most) the
// last two intervals; a page fault that hits the buffer is a wrong eviction.
type evictionFIFO struct {
	buf    []addrspace.PageID
	next   int
	full   bool
	counts *pagetable.Table[int32] // page → occurrences in buf
}

func newEvictionFIFO(depth int) *evictionFIFO {
	return &evictionFIFO{
		buf:    make([]addrspace.PageID, depth),
		counts: pagetable.New[int32](),
	}
}

func (f *evictionFIFO) push(p addrspace.PageID) {
	if f.full {
		*f.counts.Ref(f.buf[f.next])--
	}
	f.buf[f.next] = p
	*f.counts.Ref(p)++
	f.next++
	if f.next == len(f.buf) {
		f.next = 0
		f.full = true
	}
}

func (f *evictionFIFO) contains(p addrspace.PageID) bool {
	n, _ := f.counts.Get(p)
	return n > 0
}

func (f *evictionFIFO) len() int {
	if f.full {
		return len(f.buf)
	}
	return f.next
}

// StrategySpan records one stretch of execution under a single strategy,
// measured in page faults — the Fig. 13 breakdown data.
type StrategySpan struct {
	Strategy  Strategy
	FromFault uint64 // inclusive
	ToFault   uint64 // exclusive; the final span is closed at run end
}

// adjuster owns the dynamic-adjustment machinery (Algorithm 1): the active
// strategy, the wrong-eviction FIFOs and counters, the search-point jump
// state for regular applications, and the switching heuristic for irregular
// ones.
type adjuster struct {
	cfg      Config
	category Category
	active   Strategy

	fifos      [2]*evictionFIFO
	wrong      [2]int
	wrongTotal [2]int
	// failRun[s] is the length, in intervals, of strategy s's last run
	// before a wrong-eviction trigger; +Inf when s has never failed. The
	// paper's longer_interval(LRU, MRU-C) selects the strategy with the
	// longer run (DESIGN.md §4.5 records this interpretation).
	failRun  [2]float64
	runStart uint64 // interval at which the active strategy was activated

	// Regular-application state.
	searchJump         int
	oldSetsAtFirstFull int
	jumpAllowed        bool

	// Bookkeeping for Fig. 13.
	spans     []StrategySpan
	spanStart uint64 // fault number at which the active span began
	jumps     []uint64
	switches  int
}

func newAdjuster(cfg Config) *adjuster {
	a := &adjuster{cfg: cfg}
	a.fifos[StrategyLRU] = newEvictionFIFO(cfg.fifoDepth())
	a.fifos[StrategyMRUC] = newEvictionFIFO(cfg.fifoDepth())
	a.failRun[StrategyLRU] = math.Inf(1)
	a.failRun[StrategyMRUC] = math.Inf(1)
	return a
}

// start installs the classification outcome and the initial strategy.
// oldSets is the old-partition length at first memory-full, which gates the
// regular-application search-point jump (Algorithm 1 / §IV-E).
func (a *adjuster) start(cat Category, strat Strategy, oldSets int, interval, fault uint64) {
	a.category = cat
	a.active = strat
	a.oldSetsAtFirstFull = oldSets
	a.jumpAllowed = oldSets >= a.cfg.jumpFloor()
	a.runStart = interval
	a.spanStart = fault
}

// recordEviction notes a page evicted by the active strategy.
func (a *adjuster) recordEviction(p addrspace.PageID) {
	a.fifos[a.active].push(p)
}

// onFault checks the fault against both strategies' FIFO buffers and charges
// a wrong eviction to the owning strategy. It returns true when the active
// strategy's counter reached the trigger threshold (the caller then invokes
// maybeAdjust).
func (a *adjuster) onFault(p addrspace.PageID) bool {
	triggered := false
	for s, fifo := range a.fifos {
		if fifo.contains(p) {
			a.wrong[s]++
			a.wrongTotal[s]++
			if Strategy(s) == a.active && a.wrong[s] >= a.cfg.wrongEvictionThreshold() {
				triggered = true
			}
		}
	}
	return triggered
}

// onIntervalEnd resets the wrong-eviction counters ("the counter is reset
// periodically at the end of each interval").
func (a *adjuster) onIntervalEnd() {
	a.wrong[StrategyLRU] = 0
	a.wrong[StrategyMRUC] = 0
}

// maybeAdjust runs Algorithm 1 when the active strategy's wrong-eviction
// counter hit the threshold. interval and fault locate the event for the
// bookkeeping. It returns true when anything changed.
func (a *adjuster) maybeAdjust(interval, fault uint64) bool {
	if !a.cfg.DynamicAdjustment {
		return false
	}
	a.wrong[a.active] = 0 // the trigger is consumed whatever Algorithm 1 decides
	switch a.category {
	case CategoryRegular:
		// Regular applications stay on MRU-C; with a large enough footprint
		// the search point jumps forward to select colder page sets.
		if !a.jumpAllowed {
			return false
		}
		// The jump distance is fixed ("jumps the search point forward by
		// 16"); repeated triggers re-confirm it rather than compounding.
		a.searchJump = searchJumpDistance
		a.jumps = append(a.jumps, fault)
		return true
	default:
		// Irregular applications switch to longer_interval(LRU, MRU-C):
		// record the failed run, then adopt the strategy with the longer
		// expected failure-free run.
		run := float64(interval - a.runStart)
		a.failRun[a.active] = run
		other := StrategyLRU
		if a.active == StrategyLRU {
			other = StrategyMRUC
		}
		choice := a.active
		if a.failRun[other] >= a.failRun[a.active] {
			choice = other
		}
		if choice == a.active {
			return false
		}
		a.spans = append(a.spans, StrategySpan{Strategy: a.active, FromFault: a.spanStart, ToFault: fault})
		a.active = choice
		a.runStart = interval
		a.spanStart = fault
		a.switches++
		return true
	}
}

// timeline closes and returns the strategy spans up to endFault.
func (a *adjuster) timeline(endFault uint64) []StrategySpan {
	out := make([]StrategySpan, len(a.spans), len(a.spans)+1)
	copy(out, a.spans)
	if endFault > a.spanStart || len(out) == 0 {
		out = append(out, StrategySpan{Strategy: a.active, FromFault: a.spanStart, ToFault: endFault})
	}
	return out
}
