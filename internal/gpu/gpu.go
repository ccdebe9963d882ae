// Package gpu is the top of the simulator stack: a discrete-event model of a
// GTX-480-class GPU's memory system running a page-granularity access trace
// under unified memory with demand paging (Table I configuration).
//
// Model summary (see DESIGN.md §3):
//
//   - 15 SMs, each with WarpsPerSM warp slots and a 1-access-per-cycle issue
//     port. Accesses are dispatched from the global trace in canonical order
//     to whichever slot frees up next, approximating a massively parallel
//     grid marching through its input.
//   - Translation: per-SM L1 TLB (1 cycle) → shared L2 TLB (10 cycles) →
//     page-table walk (8 cycles). Concurrent walks for the same page merge
//     (walker MSHRs). Each page has one record holding its walk MSHR and
//     its slot in the L2 TLB and in every SM's L1 TLB, so a lookup, a fill
//     and an eviction's shootdown each read that record, and a shootdown
//     clears exactly the TLBs that hold the page. Walk hits are reported
//     to the driver (feeding the baselines' ideal model and HPE's HIR);
//     walk misses raise replayable far-faults: the faulting warp blocks,
//     everything else keeps going.
//   - Far-faults queue at the UVM driver (internal/uvm): 20 µs each,
//     serviced in order with duplicate coalescing, evicting via the active
//     policy when device memory is full. Evictions shoot down TLB entries.
//   - IPC: every access counts as 1 memory instruction + ComputeGap compute
//     instructions; IPC = instructions / total cycles.
package gpu

import (
	"context"
	"fmt"

	"hpe/internal/addrspace"
	"hpe/internal/cache"
	"hpe/internal/dram"
	"hpe/internal/hir"
	"hpe/internal/hpe"
	"hpe/internal/pagetable"
	"hpe/internal/policy"
	"hpe/internal/probe"
	"hpe/internal/ptw"
	"hpe/internal/sim"
	"hpe/internal/tlb"
	"hpe/internal/trace"
	"hpe/internal/uvm"
)

// TranslationDesign selects the address-translation organisation (§II of
// the paper, citing Power et al. and Ausavarungnirun et al.).
type TranslationDesign int

const (
	// DesignL2TLB is the paper's adopted design: per-SM L1 TLBs backed by a
	// shared L2 TLB, with a fixed-latency single-level walk.
	DesignL2TLB TranslationDesign = iota
	// DesignPWC is the alternative: per-SM L1 TLBs backed by a shared
	// page-walk cache inside a radix page-table walker (no L2 TLB). The
	// paper rejects it "due to better performance" of the L2 TLB — the
	// "translation" extension experiment reproduces that comparison.
	DesignPWC
)

// String names the design.
func (d TranslationDesign) String() string {
	if d == DesignPWC {
		return "PWC"
	}
	return "L2TLB"
}

// Config is the full simulated-system configuration (Table I defaults).
type Config struct {
	// SMs is the number of streaming multiprocessors (15).
	SMs int
	// WarpsPerSM is the number of concurrently resident warp slots per SM.
	WarpsPerSM int
	// CoreMHz is the core clock (1400).
	CoreMHz float64

	// L1TLBEntries/Ways: per-SM private L1 TLB (128-entry, fully assoc.).
	L1TLBEntries, L1TLBWays int
	// L2TLBEntries/Ways: shared L2 TLB (512-entry, 16-way).
	L2TLBEntries, L2TLBWays int
	// L1TLBLatency, L2TLBLatency, WalkLatency in cycles (1, 10, 8).
	L1TLBLatency, L2TLBLatency, WalkLatency sim.Cycle

	// Translation selects the address-translation design (default: the
	// paper's shared L2 TLB).
	Translation TranslationDesign
	// PTW configures the radix walker used by DesignPWC.
	PTW ptw.Config

	// MemoryPages is the device-memory capacity in pages; the experiment
	// harness sets it to 75% or 50% of the workload footprint.
	MemoryPages int
	// ComputeGap is the per-access compute-instruction count (workload
	// dependent).
	ComputeGap sim.Cycle

	// Driver is the UVM runtime configuration.
	Driver uvm.Config
	// UseHIR attaches a HIR cache and routes walk hits through it (HPE's
	// production configuration).
	UseHIR bool
	// HIR is the HIR cache geometry (used when UseHIR).
	HIR hir.Config

	// ModelDataPath sends every access through the Table I data hierarchy
	// (per-SM L1D → shared L2 → GDDR5 channels) after translation. Off by
	// default: the paper's results are fault-driven, and the calibrated
	// reproduction numbers are measured without data microtiming. The
	// "datapath" extension study turns it on.
	ModelDataPath bool
	// DataL1 and DataL2 size the data caches (Table I defaults).
	DataL1, DataL2 cache.Config
	// DataL1Latency and DataL2Latency are the hit latencies in cycles.
	DataL1Latency, DataL2Latency sim.Cycle
	// DRAM configures the channel model.
	DRAM dram.Config

	// Prepopulate maps the workload's entire footprint before the first
	// access (requires MemoryPages >= footprint). No demand faults occur, so
	// the run isolates the memory system's translation behaviour — how the
	// §II translation-design study measures the L2-TLB vs page-walk-cache
	// choice.
	Prepopulate bool

	// MaxCycles aborts a runaway simulation; 0 means unlimited.
	MaxCycles sim.Cycle
}

// DefaultConfig returns the Table I system with the given device-memory
// capacity in pages.
func DefaultConfig(memoryPages int) Config {
	return Config{
		SMs:          15,
		WarpsPerSM:   48,
		CoreMHz:      1400,
		L1TLBEntries: 128, L1TLBWays: 128,
		L2TLBEntries: 512, L2TLBWays: 16,
		L1TLBLatency: 1, L2TLBLatency: 10, WalkLatency: 8,
		PTW:           ptw.DefaultConfig(),
		DataL1:        cache.L1Config(),
		DataL2:        cache.L2Config(),
		DataL1Latency: 4, DataL2Latency: 30,
		DRAM:        dram.DefaultConfig(),
		MemoryPages: memoryPages,
		ComputeGap:  4,
		Driver:      uvm.DefaultConfig(),
		HIR:         hir.DefaultConfig(),
	}
}

// Result summarises one simulation run.
type Result struct {
	Workload string
	Policy   string

	Cycles       sim.Cycle
	Accesses     uint64
	Instructions uint64
	IPC          float64

	Faults    uint64
	Evictions uint64
	Coalesced uint64
	WalkHits  uint64
	Walks     uint64
	// WalkMerges counts accesses that joined an already in-flight walk for
	// the same page (walker MSHR hits).
	WalkMerges uint64
	// BarriersCrossed counts kernel boundaries synchronised on.
	BarriersCrossed uint64

	L1Hits, L1Misses uint64
	L2Hits, L2Misses uint64

	Driver uvm.Stats
	HIR    *hir.Stats
	HPE    *hpe.Stats
	// Probe carries the metrics-probe snapshot when a probe.Metrics was
	// attached to the run (directly or inside a probe.Multi); nil otherwise.
	Probe *probe.Snapshot
	// PTW carries the radix-walker statistics when the PWC design is active.
	PTW *ptw.Stats
	// Data-path statistics (ModelDataPath runs only).
	DataL1Hits, DataL1Misses uint64
	DataL2Hits, DataL2Misses uint64
	DRAM                     *dram.Stats

	// TimedOut reports that MaxCycles stopped the run early.
	TimedOut bool
	// Cancelled reports that the run's context (WithContext) was cancelled
	// before the trace drained; counters cover the simulated prefix only.
	Cancelled bool
}

// Runtime returns the simulated wall-clock time in seconds.
func (r Result) Runtime(coreMHz float64) float64 {
	return float64(r.Cycles) / (coreMHz * 1e6)
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%-6s %-10s cycles=%-12d IPC=%-8.3f faults=%-7d evictions=%-7d walkHits=%d",
		r.Workload, r.Policy, r.Cycles, r.IPC, r.Faults, r.Evictions, r.WalkHits)
}

// A page's record is one row of Simulator.pages: the cell at recMSHR holds
// the head warp slot of the chain of accesses waiting on its walk in
// flight, recFault the head of the chain blocked on its far-fault, recL2
// its L2 TLB slot, and recL1+i its slot in SM i's L1 TLB. Each cell holds
// the index plus one, so a zero cell (every cell of a page never touched)
// means none. Cells are 16 bits, which keeps a 15-SM record within 36
// bytes: New rejects TLBs of 2¹⁶−1 entries or more, and as many warp slots.
const (
	recMSHR = iota
	recFault
	recL2
	recL1
)

// maxCell bounds the indexes a record cell holds (index + 1 fits 16 bits).
const maxCell = 1<<16 - 1

// A warpSlot is one warp slot: its SM, the access it runs, and its link in
// the waiter chain of at most one walk or fault. A chain runs through next
// to noSlot, and its head also names its tail, so joining two keeps
// arrival order in O(1).
type warpSlot struct {
	sm   int32
	next int32
	tail int32
	seq  int
}

// noSlot ends a waiter chain.
const noSlot = -1

// The three hot-path event kinds are named handler types over the Simulator
// itself — `(*issueEvent)(s)` is a zero-allocation pointer conversion, so
// scheduling an issue, walk-completion, or access-completion event costs no
// heap allocation at all (the payload travels in the event's two integer
// words). These three are the only events the simulator schedules; fault
// service runs inside internal/uvm's driver, which resumes faulted accesses
// through faultWaker the same way.

// issueEvent runs the translation path for the access of warp slot a0.
type issueEvent Simulator

func (e *issueEvent) OnEvent(a0, _ uint64) {
	(*Simulator)(e).issue(int32(a0))
}

// walkDoneEvent resolves a completed page-table walk: a0 = page.
type walkDoneEvent Simulator

func (e *walkDoneEvent) OnEvent(a0, _ uint64) {
	(*Simulator)(e).finishWalk(addrspace.PageID(a0))
}

// faultWaker resumes the accesses blocked on a resolved far-fault: the
// waiter chain in the page record's recFault cell (uvm.Waker). The fault's
// own block prefetch may have evicted the page again before the wake; the
// accesses then complete without installing its translation.
type faultWaker Simulator

func (w *faultWaker) Wake(page addrspace.PageID) {
	s := (*Simulator)(w)
	rec := s.pages.Lookup(page)
	head := int32(rec[recFault]) - 1
	rec[recFault] = 0
	s.fillAndWake(page, head, s.driver.Resident(page))
}

// completeEvent retires one access and recycles its warp slot: a0 = slot,
// a1 = the access's compute gap (segment-dependent on annotated traces).
type completeEvent Simulator

func (e *completeEvent) OnEvent(a0, a1 uint64) {
	s := (*Simulator)(e)
	s.completed++
	s.instructions += 1 + a1
	s.dispatch(int32(a0))
	s.releaseBarrier()
}

type smState struct {
	id        int
	l1        *tlb.Slots   // indexed by page records (recL1 + id)
	l1d       *cache.Cache // nil unless ModelDataPath
	nextIssue sim.Cycle
}

// Simulator runs one (trace, policy, config) combination.
type Simulator struct {
	cfg    Config
	tr     *trace.Trace
	pol    policy.Policy
	engine *sim.Engine
	driver *uvm.Driver
	l2     *tlb.Slots   // indexed by page records (recL2); unused under DesignPWC
	pwalk  *ptw.Walker  // non-nil under DesignPWC
	l2d    *cache.Cache // nil unless ModelDataPath
	dramC  *dram.DRAM   // nil unless ModelDataPath
	sms    []*smState
	hirC   *hir.Cache
	probe  probe.Probe // nil unless instrumented (WithProbe)

	hIssue    sim.HandlerID
	hWalk     sim.HandlerID
	hComplete sim.HandlerID

	cursor int
	// pages holds one record per page (see recMSHR). A walk's waiter chain
	// starts at the slot that issued it; on a far-fault it becomes, or
	// joins, the page's fault chain until the driver wakes the page.
	pages *pagetable.Rows
	// slots holds SMs × WarpsPerSM warp slots, SM by SM.
	slots []warpSlot

	completed    uint64
	instructions uint64
	walkHits     uint64
	walks        uint64
	walkMerges   uint64

	// Per-segment compute gaps, set only for segment-annotated traces
	// (workload v2); nil keeps the uniform cfg.ComputeGap fast path.
	segStarts []int
	segGaps   []sim.Cycle

	// Kernel-boundary handling: slots that reached the next barrier park in
	// stalled until every access before the barrier completes.
	barrierIdx int
	stalled    []int32
	barriers   uint64 // crossed, for stats
}

// Option customises a Simulator beyond its Config (run-scoped concerns that
// are not part of the simulated system, such as instrumentation).
type Option func(*Simulator)

// WithProbe attaches an instrumentation probe to the run. Every emission
// site is guarded by a nil check, so omitting this option keeps the exact
// uninstrumented fast path. Probes observe only; attaching one never changes
// a simulation result.
func WithProbe(p probe.Probe) Option {
	return func(s *Simulator) {
		s.probe = p
		s.driver.SetProbe(p)
		if s.hirC != nil {
			s.hirC.SetProbe(p, s.engine.Now)
		}
	}
}

// cancelPollEvents is how many engine events fire between context polls
// under WithContext: frequent enough that a cancelled client stops the
// simulation within microseconds of wall time, rare enough that the poll
// cost vanishes against event dispatch.
const cancelPollEvents = 4096

// WithContext ties the run to ctx: the event engine polls ctx.Done() every
// cancelPollEvents events and stops firing when it closes, marking the
// Result Cancelled. A context that can never be cancelled (Background) is a
// no-op, preserving the exact unpolled fast path.
func WithContext(ctx context.Context) Option {
	return func(s *Simulator) {
		if ctx == nil || ctx.Done() == nil {
			return
		}
		s.engine.SetCancel(cancelPollEvents, func() bool {
			select {
			case <-ctx.Done():
				return true
			default:
				return false
			}
		})
	}
}

// New builds a simulator. The policy must be fresh (one policy instance per
// run).
func New(cfg Config, tr *trace.Trace, pol policy.Policy, opts ...Option) *Simulator {
	if cfg.SMs <= 0 || cfg.WarpsPerSM <= 0 {
		panic(fmt.Sprintf("gpu: bad SM configuration %d×%d", cfg.SMs, cfg.WarpsPerSM))
	}
	if cfg.L1TLBEntries >= maxCell || cfg.L2TLBEntries >= maxCell || cfg.SMs*cfg.WarpsPerSM >= maxCell {
		panic(fmt.Sprintf("gpu: page records hold 16-bit cells: TLBs of %d and %d entries and %d warps must each stay under %d",
			cfg.L1TLBEntries, cfg.L2TLBEntries, cfg.SMs*cfg.WarpsPerSM, maxCell))
	}
	s := &Simulator{
		cfg:    cfg,
		tr:     tr,
		pol:    pol,
		engine: sim.NewEngine(),
		l2:     tlb.NewSlots("L2", cfg.L2TLBEntries, cfg.L2TLBWays),
		pages:  pagetable.NewRows(recL1+cfg.SMs, tr.Footprint()),
		slots:  make([]warpSlot, cfg.SMs*cfg.WarpsPerSM),
	}
	for i := range s.slots {
		s.slots[i].sm = int32(i / cfg.WarpsPerSM)
	}
	if cfg.UseHIR {
		s.hirC = hir.New(cfg.HIR)
	}
	if cfg.Translation == DesignPWC {
		s.pwalk = ptw.New(cfg.PTW)
	}
	if cfg.ModelDataPath {
		s.l2d = cache.New(cfg.DataL2)
		s.dramC = dram.New(cfg.DRAM)
	}
	s.hIssue = s.engine.Register((*issueEvent)(s))
	s.hWalk = s.engine.Register((*walkDoneEvent)(s))
	s.hComplete = s.engine.Register((*completeEvent)(s))
	s.driver = uvm.New(cfg.Driver, s.engine, cfg.MemoryPages, pol, s.hirC, s.invalidate)
	s.driver.SetWaker((*faultWaker)(s))
	if len(tr.Segments) > 0 {
		// A segment-annotated trace (phase schedule or colocation) overrides
		// the uniform compute gap per segment.
		s.segStarts = make([]int, len(tr.Segments))
		s.segGaps = make([]sim.Cycle, len(tr.Segments))
		for i, seg := range tr.Segments {
			s.segStarts[i] = seg.Start
			s.segGaps[i] = sim.Cycle(max(0, seg.Gap))
		}
	}
	if len(tr.Tenants) > 0 {
		s.driver.SetTenants(tr.Tenants)
	}
	for i := 0; i < cfg.SMs; i++ {
		sm := &smState{
			id: i,
			l1: tlb.NewSlots(fmt.Sprintf("L1-%d", i), cfg.L1TLBEntries, cfg.L1TLBWays),
		}
		if cfg.ModelDataPath {
			sm.l1d = cache.New(cfg.DataL1)
		}
		s.sms = append(s.sms, sm)
	}
	if cfg.MaxCycles > 0 {
		s.engine.SetLimit(cfg.MaxCycles)
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// invalidate shoots down TLB entries (and, on the data path, cache lines)
// for an evicted page. The page's record names every TLB slot it holds, so
// exactly those are invalidated. The data caches keep no per-page state
// and are scanned.
func (s *Simulator) invalidate(p addrspace.PageID) {
	if rec := s.pages.Lookup(p); rec != nil {
		if slot := rec[recL2]; slot != 0 {
			s.l2.Invalidate(int32(slot) - 1)
			rec[recL2] = 0
		}
		for i, slot := range rec[recL1:] {
			if slot != 0 {
				s.sms[i].l1.Invalidate(int32(slot) - 1)
				rec[recL1+i] = 0
			}
		}
	}
	if s.l2d != nil {
		for _, sm := range s.sms {
			sm.l1d.InvalidatePage(p)
		}
		s.l2d.InvalidatePage(p)
	}
}

// fill installs page p in TLB a, whose slot for p is cell c of p's record
// rec: a present page is refreshed, otherwise p takes its set's
// reuse-first slot and the page it replaces loses its cell.
func (s *Simulator) fill(a *tlb.Slots, p addrspace.PageID, rec []uint16, c int) {
	if slot := rec[c]; slot != 0 {
		a.Touch(int32(slot) - 1)
		return
	}
	slot, old, replaced := a.Insert(p)
	if replaced {
		s.pages.Lookup(old)[c] = 0
	}
	rec[c] = uint16(slot + 1)
}

// dataLatency runs one access through the data hierarchy, synthesising a
// line within the page from the access sequence number (a page-granularity
// trace cannot carry line offsets; the 7-stride spread exercises row
// buffers and cache sets representatively).
func (s *Simulator) dataLatency(sm *smState, page addrspace.PageID, seq int) sim.Cycle {
	const linesPerPage = addrspace.PageBytes / cache.LineBytes
	l := cache.LineOf(page.BaseAddr()) + cache.LineID(seq%linesPerPage)
	if sm.l1d.Access(l) {
		return s.cfg.DataL1Latency
	}
	if s.l2d.Access(l) {
		return s.cfg.DataL1Latency + s.cfg.DataL2Latency
	}
	now := s.engine.Now()
	done := s.dramC.Access(now+s.cfg.DataL1Latency+s.cfg.DataL2Latency, l)
	return done - now
}

// dispatch hands the next trace access to the freed warp slot. At a kernel
// boundary the slot parks until the preceding kernel drains.
func (s *Simulator) dispatch(warp int32) {
	if s.cursor >= s.tr.Len() {
		return
	}
	w := &s.slots[warp]
	sm := s.sms[w.sm]
	if s.barrierIdx < len(s.tr.Barriers) && s.cursor == s.tr.Barriers[s.barrierIdx] {
		if int(s.completed) < s.cursor {
			s.stalled = append(s.stalled, warp)
			return
		}
		if s.probe != nil {
			s.probe.Emit(probe.KernelBarrier(s.engine.Now(), sm.id, s.barrierIdx, s.cursor))
		}
		s.barrierIdx++
		s.barriers++
	}
	w.seq = s.cursor
	s.cursor++
	issueAt := s.engine.Now()
	if sm.nextIssue >= issueAt {
		issueAt = sm.nextIssue + 1
	}
	sm.nextIssue = issueAt
	s.engine.Schedule(issueAt, s.hIssue, uint64(warp), 0)
}

// issue runs the translation path for the access of warp slot warp.
func (s *Simulator) issue(warp int32) {
	w := &s.slots[warp]
	sm, seq := s.sms[w.sm], w.seq
	page := s.tr.Refs[seq]
	// rec stays valid through this call: the fills below look records up
	// without allocating.
	rec := s.pages.Row(page)
	if slot := rec[recL1+sm.id]; slot != 0 {
		sm.l1.Hit(int32(slot) - 1)
		s.finish(warp, page, s.cfg.L1TLBLatency)
		return
	}
	sm.l1.Miss()
	if s.probe != nil {
		s.probe.Emit(probe.TLBMiss(s.engine.Now(), sm.id, page, seq, 1))
	}
	if s.pwalk == nil {
		if slot := rec[recL2]; slot != 0 {
			s.l2.Hit(int32(slot) - 1)
			s.fill(sm.l1, page, rec, recL1+sm.id)
			s.finish(warp, page, s.cfg.L1TLBLatency+s.cfg.L2TLBLatency)
			return
		}
		s.l2.Miss()
		if s.probe != nil {
			s.probe.Emit(probe.TLBMiss(s.engine.Now(), sm.id, page, seq, 2))
		}
	}
	// Page walk, with MSHR-style merging of concurrent walks.
	w.next, w.tail = noSlot, warp
	if head := int32(rec[recMSHR]) - 1; head >= 0 {
		s.join(head, warp)
		s.walkMerges++
		if s.probe != nil {
			s.probe.Emit(probe.WalkMerge(s.engine.Now(), sm.id, page, seq))
		}
		return
	}
	rec[recMSHR] = uint16(warp + 1)
	s.walks++
	var delay sim.Cycle
	if s.pwalk != nil {
		delay = s.cfg.L1TLBLatency + s.pwalk.WalkLatency(page)
	} else {
		delay = s.cfg.L1TLBLatency + s.cfg.L2TLBLatency + s.cfg.WalkLatency
	}
	s.engine.ScheduleAfter(delay, s.hWalk, uint64(page), 0)
}

// join appends the waiter chain headed by b to the one headed by a.
func (s *Simulator) join(a, b int32) {
	s.slots[s.slots[a].tail].next = b
	s.slots[a].tail = s.slots[b].tail
}

// finishWalk resolves a completed page-table walk.
func (s *Simulator) finishWalk(page addrspace.PageID) {
	rec := s.pages.Lookup(page)
	head := int32(rec[recMSHR]) - 1
	rec[recMSHR] = 0
	first := &s.slots[head]
	if s.driver.Resident(page) {
		s.walkHits++
		if s.probe != nil {
			s.probe.Emit(probe.WalkHit(s.engine.Now(), int(first.sm), page, first.seq))
		}
		s.driver.RecordWalkHit(page, first.seq)
		s.fillAndWake(page, head, true)
		return
	}
	// Far-fault: the waiting warps block until the driver wakes the page
	// through faultWaker. A walk that ends on a page whose fault is pending
	// appends its chain to that fault's, so the earlier walk's accesses
	// complete first.
	if fh := int32(rec[recFault]) - 1; fh >= 0 {
		s.join(fh, head)
	} else {
		rec[recFault] = uint16(head + 1)
	}
	s.driver.Fault(page, first.seq)
}

// fillAndWake completes every access on the waiter chain from head and,
// while the page is resident, installs its translation in the L2 TLB and
// in each waiter's L1 TLB (fillAndWake is the single sink for waiter
// chains on both the walk-hit and fault paths).
func (s *Simulator) fillAndWake(page addrspace.PageID, head int32, resident bool) {
	rec := s.pages.Lookup(page)
	if resident && s.pwalk == nil {
		s.fill(s.l2, page, rec, recL2)
	}
	for warp := head; warp != noSlot; warp = s.slots[warp].next {
		if resident {
			sm := s.slots[warp].sm
			s.fill(s.sms[sm].l1, page, rec, recL1+int(sm))
		}
		s.finish(warp, page, 1)
	}
}

// finish completes warp's access after `extra` cycles (plus the data-path
// latency when modelled) and recycles the slot after the compute gap — the
// uniform cfg.ComputeGap, or the access's segment gap on annotated traces.
func (s *Simulator) finish(warp int32, page addrspace.PageID, extra sim.Cycle) {
	w := &s.slots[warp]
	if sm := s.sms[w.sm]; sm.l1d != nil {
		extra += s.dataLatency(sm, page, w.seq)
	}
	gap := s.cfg.ComputeGap
	if s.segStarts != nil {
		gap = s.gapAt(w.seq)
	}
	s.engine.ScheduleAfter(extra+gap, s.hComplete, uint64(warp), uint64(gap))
}

// gapAt returns the compute gap of the segment containing trace position seq
// (binary search over the sorted segment starts; first segment starts at 0).
func (s *Simulator) gapAt(seq int) sim.Cycle {
	lo, hi := 0, len(s.segStarts)
	for lo+1 < hi {
		if m := (lo + hi) / 2; s.segStarts[m] <= seq {
			lo = m
		} else {
			hi = m
		}
	}
	return s.segGaps[lo]
}

// releaseBarrier re-dispatches parked slots once the kernel before the
// pending barrier has fully drained.
func (s *Simulator) releaseBarrier() {
	if len(s.stalled) == 0 ||
		s.barrierIdx >= len(s.tr.Barriers) ||
		s.cursor != s.tr.Barriers[s.barrierIdx] ||
		int(s.completed) < s.cursor {
		return
	}
	parked := s.stalled
	s.stalled = nil
	for _, warp := range parked {
		s.dispatch(warp)
	}
}

// Run executes the simulation to completion and returns the result.
func (s *Simulator) Run() Result {
	if s.cfg.Prepopulate {
		s.driver.Prepopulate(s.tr.UniquePages())
	}
	// Prime every warp slot.
	for warp := range s.slots {
		s.dispatch(int32(warp))
	}
	s.engine.Run()

	res := Result{
		Workload:        s.tr.Name,
		Policy:          s.pol.Name(),
		Cycles:          s.engine.Now(),
		Accesses:        s.completed,
		Instructions:    s.instructions,
		WalkHits:        s.walkHits,
		Walks:           s.walks,
		WalkMerges:      s.walkMerges,
		BarriersCrossed: s.barriers,
		Driver:          s.driver.Stats(),
		Cancelled:       s.engine.Cancelled(),
		TimedOut:        s.cfg.MaxCycles > 0 && s.engine.Pending() > 0 && !s.engine.Cancelled(),
	}
	res.Faults = res.Driver.FaultsServiced
	res.Evictions = res.Driver.Evictions
	res.Coalesced = res.Driver.Coalesced
	if res.Cycles > 0 {
		res.IPC = float64(res.Instructions) / float64(res.Cycles)
	}
	var l1h, l1m uint64
	for _, sm := range s.sms {
		h, m, _, _ := sm.l1.Stats()
		l1h += h
		l1m += m
	}
	res.L1Hits, res.L1Misses = l1h, l1m
	h2, m2, _, _ := s.l2.Stats()
	res.L2Hits, res.L2Misses = h2, m2
	if s.hirC != nil {
		st := s.hirC.Stats()
		res.HIR = &st
	}
	if hp, ok := s.pol.(*hpe.HPE); ok {
		st := hp.Stats()
		res.HPE = &st
	}
	if s.pwalk != nil {
		st := s.pwalk.Stats()
		res.PTW = &st
	}
	if s.l2d != nil {
		for _, sm := range s.sms {
			h, m := sm.l1d.Stats()
			res.DataL1Hits += h
			res.DataL1Misses += m
		}
		res.DataL2Hits, res.DataL2Misses = s.l2d.Stats()
		st := s.dramC.Stats()
		res.DRAM = &st
	}
	if m := probe.FindMetrics(s.probe); m != nil {
		snap := m.Snapshot()
		res.Probe = &snap
	}
	return res
}

// Run is the one-call convenience: build and run a simulation.
func Run(cfg Config, tr *trace.Trace, pol policy.Policy, opts ...Option) Result {
	return New(cfg, tr, pol, opts...).Run()
}
