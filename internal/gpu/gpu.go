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
//     (walker MSHRs). Walk hits are reported to the driver (feeding the
//     baselines' ideal model and HPE's HIR); walk misses raise replayable
//     far-faults: the faulting warp blocks, everything else keeps going.
//   - Far-faults queue at the UVM driver (internal/uvm): 20 µs each,
//     serviced in order with duplicate coalescing, evicting via the active
//     policy when device memory is full. Evictions shoot down TLB entries.
//   - IPC: every access counts as 1 memory instruction + ComputeGap compute
//     instructions; IPC = instructions / total cycles.
package gpu

import (
	"context"
	"fmt"
	"math/bits"

	"hpe/internal/addrspace"
	"hpe/internal/cache"
	"hpe/internal/dram"
	"hpe/internal/hir"
	"hpe/internal/hpe"
	"hpe/internal/mem"
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

type continuation struct {
	smID int
	seq  int
}

// The three hot-path event kinds are named handler types over the Simulator
// itself — `(*issueEvent)(s)` is a zero-allocation pointer conversion, so
// scheduling an issue, walk-completion, or access-completion event costs no
// heap allocation at all (the payload travels in the event's two integer
// words). These three are the only events the simulator schedules; fault
// service runs inside internal/uvm's driver, which resumes faulted accesses
// through faultWaker the same way.

// issueEvent runs the translation path: a0 = SM id, a1 = access sequence.
type issueEvent Simulator

func (e *issueEvent) OnEvent(a0, a1 uint64) {
	s := (*Simulator)(e)
	s.issue(s.sms[a0], int(a1))
}

// walkDoneEvent resolves a completed page-table walk: a0 = page.
type walkDoneEvent Simulator

func (e *walkDoneEvent) OnEvent(a0, _ uint64) {
	(*Simulator)(e).finishWalk(addrspace.PageID(a0))
}

// faultWaker resumes the accesses merged on a far-faulted walk: the token is
// the walk's waiter-list index (uvm.Waker).
type faultWaker Simulator

func (w *faultWaker) Wake(page addrspace.PageID, token uint64) {
	(*Simulator)(w).fillAndWake(page, int32(token))
}

// completeEvent retires one access and recycles its warp slot: a0 = SM id,
// a1 = the access's compute gap (segment-dependent on annotated traces).
type completeEvent Simulator

func (e *completeEvent) OnEvent(a0, a1 uint64) {
	s := (*Simulator)(e)
	s.completed++
	s.instructions += 1 + a1
	s.dispatch(s.sms[a0])
	s.releaseBarrier()
}

type smState struct {
	id        int
	bit       uint64 // this SM's bit in a page's L1-sharer mask (id % 64)
	l1        *tlb.TLB
	l1d       *cache.Cache // nil unless ModelDataPath
	nextIssue sim.Cycle
}

// Simulator runs one (trace, policy, config) combination.
type Simulator struct {
	cfg    Config
	tr     *trace.Trace
	pol    policy.Policy
	engine *sim.Engine
	memory *mem.DeviceMemory
	driver *uvm.Driver
	l2     *tlb.TLB
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
	// Walk MSHRs: mshrs maps a page with a walk in flight to its waiter
	// list, an index into waiters. A list outlives the walk while its
	// far-fault is serviced (the index is the fault's wake token) and returns
	// to freeLists in fillAndWake; each list keeps its capacity across reuse.
	mshrs     *pagetable.Table[int32]
	waiters   [][]continuation
	freeLists []int32
	// sharers maps a page to the L1 TLBs that may hold it: bit id%64 of
	// every SM that filled it since its last shootdown. Above 64 SMs bits
	// alias, which only adds no-op invalidations.
	sharers *pagetable.Table[uint64]

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
	stalled    []*smState
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
	if cfg.MemoryPages <= 0 {
		panic("gpu: MemoryPages must be positive")
	}
	s := &Simulator{
		cfg:     cfg,
		tr:      tr,
		pol:     pol,
		engine:  sim.NewEngine(),
		memory:  mem.NewDeviceMemory(cfg.MemoryPages),
		l2:      tlb.New("L2", cfg.L2TLBEntries, cfg.L2TLBWays),
		mshrs:   pagetable.New[int32](),
		sharers: pagetable.New[uint64](),
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
	s.driver = uvm.New(cfg.Driver, s.engine, s.memory, pol, s.hirC, s.invalidate)
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
			id:  i,
			bit: 1 << (i % 64),
			l1:  tlb.New(fmt.Sprintf("L1-%d", i), cfg.L1TLBEntries, cfg.L1TLBWays),
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
// for an evicted page. Only the L1 TLBs in the page's sharer mask can hold
// it; every SM an aliased bit stands for is probed, which is a no-op for
// those that do not. The data caches keep no sharer state and are scanned.
func (s *Simulator) invalidate(p addrspace.PageID) {
	s.l2.Invalidate(p)
	if mask, ok := s.sharers.Get(p); ok {
		s.sharers.Delete(p)
		for ; mask != 0; mask &= mask - 1 {
			for i := bits.TrailingZeros64(mask); i < len(s.sms); i += 64 {
				s.sms[i].l1.Invalidate(p)
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

// share records that the L1 TLBs in mask now hold page p.
func (s *Simulator) share(p addrspace.PageID, mask uint64) {
	old, _ := s.sharers.Get(p)
	s.sharers.Put(p, old|mask)
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

// dispatch hands the next trace access to a freed warp slot of SM sm. At a
// kernel boundary the slot parks until the preceding kernel drains.
func (s *Simulator) dispatch(sm *smState) {
	if s.cursor >= s.tr.Len() {
		return
	}
	if s.barrierIdx < len(s.tr.Barriers) && s.cursor == s.tr.Barriers[s.barrierIdx] {
		if int(s.completed) < s.cursor {
			s.stalled = append(s.stalled, sm)
			return
		}
		if s.probe != nil {
			s.probe.Emit(probe.KernelBarrier(s.engine.Now(), sm.id, s.barrierIdx, s.cursor))
		}
		s.barrierIdx++
		s.barriers++
	}
	seq := s.cursor
	s.cursor++
	issueAt := s.engine.Now()
	if sm.nextIssue >= issueAt {
		issueAt = sm.nextIssue + 1
	}
	sm.nextIssue = issueAt
	s.engine.Schedule(issueAt, s.hIssue, uint64(sm.id), uint64(seq))
}

// issue runs the translation path for access seq on SM sm.
func (s *Simulator) issue(sm *smState, seq int) {
	page := s.tr.Refs[seq]
	if sm.l1.Lookup(page) {
		s.finish(sm, page, seq, s.cfg.L1TLBLatency)
		return
	}
	if s.probe != nil {
		s.probe.Emit(probe.TLBMiss(s.engine.Now(), sm.id, page, seq, 1))
	}
	if s.pwalk == nil {
		if s.l2.Lookup(page) {
			sm.l1.Fill(page)
			s.share(page, sm.bit)
			s.finish(sm, page, seq, s.cfg.L1TLBLatency+s.cfg.L2TLBLatency)
			return
		}
		if s.probe != nil {
			s.probe.Emit(probe.TLBMiss(s.engine.Now(), sm.id, page, seq, 2))
		}
	}
	// Page walk, with MSHR-style merging of concurrent walks.
	cont := continuation{smID: sm.id, seq: seq}
	if li, ok := s.mshrs.Get(page); ok {
		s.waiters[li] = append(s.waiters[li], cont)
		s.walkMerges++
		if s.probe != nil {
			s.probe.Emit(probe.WalkMerge(s.engine.Now(), sm.id, page, seq))
		}
		return
	}
	li := s.newList()
	s.waiters[li] = append(s.waiters[li], cont)
	s.mshrs.Put(page, li)
	s.walks++
	var delay sim.Cycle
	if s.pwalk != nil {
		delay = s.cfg.L1TLBLatency + s.pwalk.WalkLatency(page)
	} else {
		delay = s.cfg.L1TLBLatency + s.cfg.L2TLBLatency + s.cfg.WalkLatency
	}
	s.engine.ScheduleAfter(delay, s.hWalk, uint64(page), 0)
}

// newList returns an empty waiter list, recycled when one is free.
func (s *Simulator) newList() int32 {
	if n := len(s.freeLists); n > 0 {
		li := s.freeLists[n-1]
		s.freeLists = s.freeLists[:n-1]
		return li
	}
	s.waiters = append(s.waiters, nil)
	return int32(len(s.waiters) - 1)
}

// finishWalk resolves a completed page-table walk.
func (s *Simulator) finishWalk(page addrspace.PageID) {
	li, _ := s.mshrs.Get(page)
	s.mshrs.Delete(page)
	first := s.waiters[li][0]
	if s.memory.Resident(page) {
		s.walkHits++
		if s.probe != nil {
			s.probe.Emit(probe.WalkHit(s.engine.Now(), first.smID, page, first.seq))
		}
		s.driver.RecordWalkHit(page, first.seq)
		s.fillAndWake(page, li)
		return
	}
	// Far-fault: the waiting warps block until the driver maps the page and
	// hands the list back through faultWaker.
	s.driver.Fault(page, first.seq, uint64(li))
}

// fillAndWake installs the translation, completes every access on waiter
// list li, and frees the list (fillAndWake is the single sink for waiter
// lists on both the walk-hit and fault paths).
func (s *Simulator) fillAndWake(page addrspace.PageID, li int32) {
	if s.pwalk == nil {
		s.l2.Fill(page)
	}
	var mask uint64
	for _, c := range s.waiters[li] {
		sm := s.sms[c.smID]
		sm.l1.Fill(page)
		mask |= sm.bit
		s.finish(sm, page, c.seq, 1)
	}
	s.share(page, mask)
	s.waiters[li] = s.waiters[li][:0]
	s.freeLists = append(s.freeLists, li)
}

// finish completes one access after `extra` cycles (plus the data-path
// latency when modelled) and recycles the slot after the compute gap — the
// uniform cfg.ComputeGap, or the access's segment gap on annotated traces.
func (s *Simulator) finish(sm *smState, page addrspace.PageID, seq int, extra sim.Cycle) {
	if sm.l1d != nil {
		extra += s.dataLatency(sm, page, seq)
	}
	gap := s.cfg.ComputeGap
	if s.segStarts != nil {
		gap = s.gapAt(seq)
	}
	s.engine.ScheduleAfter(extra+gap, s.hComplete, uint64(sm.id), uint64(gap))
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
	for _, sm := range parked {
		s.dispatch(sm)
	}
}

// Run executes the simulation to completion and returns the result.
func (s *Simulator) Run() Result {
	if s.cfg.Prepopulate {
		pages := s.tr.UniquePages()
		if len(pages) > s.cfg.MemoryPages {
			panic(fmt.Sprintf("gpu: Prepopulate needs %d pages, memory holds %d",
				len(pages), s.cfg.MemoryPages))
		}
		for _, p := range pages {
			if err := s.memory.Insert(p); err != nil {
				panic(fmt.Sprintf("gpu: prepopulate: %v", err))
			}
			s.pol.OnMapped(p, 0)
		}
	}
	// Prime every warp slot.
	for _, sm := range s.sms {
		for w := 0; w < s.cfg.WarpsPerSM; w++ {
			s.dispatch(sm)
		}
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
