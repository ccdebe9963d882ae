// Package uvm models the unified-memory software runtime of Section II: the
// GPU driver on the host CPU that services far-faults. Faults queue at the
// driver and are serviced with the paper's fixed 20 µs latency, which covers
// the page-table lookup, any eviction, and the PCIe page migration.
// Duplicate faults on an in-flight page coalesce. When HPE is active, the
// driver also drains the HIR cache every nth serviced fault and charges the
// PCIe transfer latency of the drained records to simulated time, exactly as
// the paper's evaluation does.
//
// The paper's runtime services faults one at a time (Channels = 1, the
// default). The Channels knob generalises this to a pipelined driver for the
// extension study in internal/experiments: how much of the oversubscription
// wall is queueing delay rather than eviction quality.
package uvm

import (
	"fmt"
	"math"

	"hpe/internal/addrspace"
	"hpe/internal/hir"
	"hpe/internal/mem"
	"hpe/internal/policy"
	"hpe/internal/probe"
	"hpe/internal/sim"
	"hpe/internal/trace"
)

// HitBatchReceiver is implemented by policies (HPE) that consume HIR drains.
type HitBatchReceiver interface {
	OnHitBatch([]hir.Record)
}

// Config parameterises the driver.
type Config struct {
	// FaultLatency is the per-fault service time (paper: 20 µs = 28,000
	// cycles at 1.4 GHz).
	FaultLatency sim.Cycle
	// Channels is the number of faults the driver services concurrently.
	// The paper's runtime is serial (1, the default); higher values model a
	// pipelined driver for the extension study.
	Channels int
	// TransferInterval drains the HIR every n serviced faults (paper: 16).
	// Ignored when HIR is nil.
	TransferInterval int
	// PCIeBytesPerCycle converts HIR payload bytes into transfer cycles
	// (16 GB/s at 1.4 GHz ≈ 11.43 bytes/cycle).
	PCIeBytesPerCycle float64
	// HostBusyFraction is the share of the fault-service latency during
	// which the host CPU core is actually busy (page-table lookup, unmap/
	// map, policy update); the remainder is PCIe round trips and GPU-side
	// work. Feeds the §V-C core-load estimate.
	HostBusyFraction float64
	// PrefetchPages makes each serviced fault also migrate up to this many
	// additional non-resident pages from the same 16-page aligned block
	// (NVIDIA's UVM migrates whole 64-KB basic blocks this way). 0 disables
	// prefetching — the paper's configuration. Prefetched pages are mapped
	// (and may trigger evictions) but are not counted as faults.
	PrefetchPages int
}

// DefaultConfig returns the paper's driver parameters at 1.4 GHz.
func DefaultConfig() Config {
	return Config{
		FaultLatency:      sim.CyclesPerMicrosecond(20, 1400),
		Channels:          1,
		TransferInterval:  16,
		PCIeBytesPerCycle: 16e9 / 1.4e9,
		HostBusyFraction:  0.35,
	}
}

// Stats summarises driver activity.
type Stats struct {
	// FaultsServiced counts far-faults completed (after coalescing).
	FaultsServiced uint64
	// Coalesced counts fault requests merged onto an in-flight fault.
	Coalesced uint64
	// Evictions counts pages paged out to host memory.
	Evictions uint64
	// HIRTransferCycles is the total simulated time spent moving HIR
	// payloads over PCIe.
	HIRTransferCycles sim.Cycle
	// HIRTransferBytes is the total HIR payload moved.
	HIRTransferBytes uint64
	// MaxQueueDepth is the deepest the wait queue got (excluding faults in
	// service).
	MaxQueueDepth int
	// BusyCycles approximates host-side fault-handling occupancy (the
	// host-busy share of service time plus HIR transfer time; the paper's
	// core-load metric builds on this).
	BusyCycles sim.Cycle
	// Prefetched counts pages migrated speculatively alongside faults.
	Prefetched uint64
	// Batched counts queued faults satisfied early by a block migration.
	Batched uint64
	// Tenants carries per-tenant attribution when the run is a colocated
	// workload (SetTenants); nil — and omitted from JSON — otherwise, so
	// single-tenant results keep their exact shape.
	Tenants []TenantStats `json:",omitempty"`
}

// TenantStats attributes driver activity to one tenant of a colocated
// workload, by the tenant page ranges the trace carries.
type TenantStats struct {
	// Name is the tenant token from the trace annotation ("HSD", "NWx2").
	Name string
	// Faults counts far-faults serviced on the tenant's pages.
	Faults uint64
	// Evictions counts the tenant's pages paged out, whoever triggered it.
	Evictions uint64
	// CrossEvictions is the subset of Evictions triggered by another
	// tenant's fault — the contention signal colocation studies read.
	CrossEvictions uint64
}

type pendingFault struct {
	page      addrspace.PageID
	seq       int
	enq       sim.Cycle // enqueue time, for fault-latency events
	wakeups   []func()
	inService bool // dispatched to a channel
	done      bool // resolved early by a block prefetch
}

// serviceDoneEvent fires when a channel finishes servicing a fault:
// a0 = index into Driver.faults. Scheduling by registered handler keeps the
// per-fault event allocation-free (the driver used to allocate one closure
// per serviced fault).
type serviceDoneEvent Driver

func (e *serviceDoneEvent) OnEvent(a0, _ uint64) {
	(*Driver)(e).complete(int32(a0))
}

// drainDoneEvent fires when an HIR drain's PCIe transfer finishes:
// a0 = index into Driver.batches. The transfer occupied the channel of the
// fault that triggered the drain, so the event also frees that channel.
type drainDoneEvent Driver

func (e *drainDoneEvent) OnEvent(a0, _ uint64) {
	(*Driver)(e).drainDone(int32(a0))
}

// Driver is the host-side UVM runtime.
type Driver struct {
	cfg    Config
	engine *sim.Engine
	memory *mem.DeviceMemory
	pol    policy.Policy
	hirC   *hir.Cache // nil when the active policy does not use HIR
	sink   HitBatchReceiver

	// invalidate is called for every evicted page so the GPU can shoot down
	// stale TLB entries.
	invalidate func(addrspace.PageID)

	// Faults live in a slice-backed store with a free list; the queue and
	// the in-flight index refer to them by index. This keeps fault-heavy
	// runs from allocating one node per fault and gives the GC nothing to
	// chase once wakeup closures are recycled through wakePool.
	faults    []pendingFault
	faultFree []int32
	queue     []int32                    // waiting, FIFO
	inFlight  map[addrspace.PageID]int32 // waiting + in service
	wakePool  [][]func()                 // recycled wakeup slices
	hDone     sim.HandlerID              // serviceDoneEvent registration
	busy      int                        // channels in use

	// HIR drains in flight over PCIe, indexed by drainDoneEvent's a0 and
	// recycled through batchFree.
	batches   [][]hir.Record
	batchFree []int32
	hDrain    sim.HandlerID // drainDoneEvent registration

	probe probe.Probe // nil unless instrumented
	stats Stats

	// tenants holds the colocated workload's page ranges when attribution is
	// on (SetTenants); nil otherwise. Like the probe, every attribution site
	// is behind one nil check, so single-tenant runs keep the exact fast path.
	tenants []trace.TenantRange
}

// New wires a driver. invalidate may be nil (no TLB shootdown — used by
// unit tests). If the policy implements HitBatchReceiver and hirCache is
// non-nil, drains are delivered to it.
func New(cfg Config, engine *sim.Engine, memory *mem.DeviceMemory, pol policy.Policy,
	hirCache *hir.Cache, invalidate func(addrspace.PageID)) *Driver {
	if cfg.FaultLatency == 0 {
		panic("uvm: zero fault latency")
	}
	if cfg.Channels <= 0 {
		cfg.Channels = 1
	}
	d := &Driver{
		cfg:        cfg,
		engine:     engine,
		memory:     memory,
		pol:        pol,
		hirC:       hirCache,
		invalidate: invalidate,
		inFlight:   make(map[addrspace.PageID]int32),
	}
	d.hDone = engine.Register((*serviceDoneEvent)(d))
	d.hDrain = engine.Register((*drainDoneEvent)(d))
	if sink, ok := pol.(HitBatchReceiver); ok {
		d.sink = sink
	}
	return d
}

// SetProbe attaches an instrumentation probe (nil detaches). Every emission
// site is guarded by a nil check, so the unprobed driver keeps its exact
// fast path.
func (d *Driver) SetProbe(p probe.Probe) { d.probe = p }

// SetTenants turns on per-tenant attribution for a colocated workload: every
// serviced fault and eviction is charged to the tenant whose page range
// contains the page. nil (the default) keeps the exact unattributed fast
// path — the same contract as SetProbe.
func (d *Driver) SetTenants(tens []trace.TenantRange) {
	d.tenants = tens
	d.stats.Tenants = nil
	for _, t := range tens {
		d.stats.Tenants = append(d.stats.Tenants, TenantStats{Name: t.Name})
	}
}

// chargeFault attributes one serviced fault; call only when tenants != nil.
func (d *Driver) chargeFault(p addrspace.PageID) {
	if i := trace.TenantIndex(d.tenants, p); i >= 0 {
		d.stats.Tenants[i].Faults++
	}
}

// chargeEviction attributes one eviction to the victim's tenant, flagging it
// cross-tenant when another tenant's fault triggered it; call only when
// tenants != nil.
func (d *Driver) chargeEviction(victim, trigger addrspace.PageID) {
	vi := trace.TenantIndex(d.tenants, victim)
	if vi < 0 {
		return
	}
	d.stats.Tenants[vi].Evictions++
	if ti := trace.TenantIndex(d.tenants, trigger); ti >= 0 && ti != vi {
		d.stats.Tenants[vi].CrossEvictions++
	}
}

// Stats returns a copy of the driver's counters. The per-tenant slice is
// copied too, so callers can hold the snapshot across further simulation.
func (d *Driver) Stats() Stats {
	s := d.stats
	if s.Tenants != nil {
		s.Tenants = append([]TenantStats(nil), s.Tenants...)
	}
	return s
}

// Pending returns the number of queued (not yet in service) faults.
func (d *Driver) Pending() int { return len(d.queue) }

// RecordWalkHit forwards a page-walk hit to the policy (the baselines' ideal
// feed and HPE's IdealHitFeed mode) and to the HIR cache when present.
func (d *Driver) RecordWalkHit(p addrspace.PageID, seq int) {
	d.pol.OnWalkHit(p, seq)
	if d.hirC != nil {
		d.hirC.RecordHit(p)
	}
}

// Fault reports a far-fault on page p observed at trace position seq; wake
// runs when the page becomes resident. Duplicate faults coalesce onto the
// in-flight or queued fault for the same page.
func (d *Driver) Fault(p addrspace.PageID, seq int, wake func()) {
	if d.memory.Resident(p) {
		// Raced with a completion: the page is already here.
		wake()
		return
	}
	if fi, ok := d.inFlight[p]; ok {
		f := &d.faults[fi]
		f.wakeups = append(f.wakeups, wake)
		d.stats.Coalesced++
		if d.probe != nil {
			d.probe.Emit(probe.Coalesce(d.engine.Now(), p, seq))
		}
		return
	}
	fi := d.allocFault()
	f := &d.faults[fi]
	*f = pendingFault{page: p, seq: seq, enq: d.engine.Now(), wakeups: d.allocWakeups(wake)}
	d.queue = append(d.queue, fi)
	d.inFlight[p] = fi
	if len(d.queue) > d.stats.MaxQueueDepth {
		d.stats.MaxQueueDepth = len(d.queue)
	}
	if d.probe != nil {
		d.probe.Emit(probe.FaultBegin(f.enq, p, seq, len(d.queue)))
	}
	d.pump()
}

// allocFault returns a free fault-store index.
func (d *Driver) allocFault() int32 {
	if n := len(d.faultFree); n > 0 {
		fi := d.faultFree[n-1]
		d.faultFree = d.faultFree[:n-1]
		return fi
	}
	d.faults = append(d.faults, pendingFault{})
	return int32(len(d.faults) - 1)
}

// allocWakeups returns a recycled wakeup slice seeded with wake.
func (d *Driver) allocWakeups(wake func()) []func() {
	if n := len(d.wakePool); n > 0 {
		ws := d.wakePool[n-1]
		d.wakePool = d.wakePool[:n-1]
		//lint:ignore hpelint/hotalloc wakeup slices recycle through wakePool, so growth amortizes across faults
		return append(ws, wake)
	}
	//lint:ignore hpelint/hotalloc pool-miss seed only; subsequent faults reuse the slice via wakePool
	return append(make([]func(), 0, 4), wake)
}

// runWakeups fires and recycles a fault's wakeup slice.
func (d *Driver) runWakeups(ws []func()) {
	for i, wake := range ws {
		ws[i] = nil // drop closure refs before pooling
		wake()
	}
	d.wakePool = append(d.wakePool, ws[:0])
}

// pump dispatches queued faults onto free channels.
func (d *Driver) pump() {
	frac := d.cfg.HostBusyFraction
	if frac <= 0 || frac > 1 {
		frac = 1
	}
	for d.busy < d.cfg.Channels && len(d.queue) > 0 {
		fi := d.queue[0]
		d.queue = d.queue[1:]
		f := &d.faults[fi]
		if f.done {
			d.faultFree = append(d.faultFree, fi) // resolved early by a block prefetch
			continue
		}
		f.inService = true
		d.busy++
		d.stats.BusyCycles += sim.Cycle(float64(d.cfg.FaultLatency) * frac)
		d.engine.ScheduleAfter(d.cfg.FaultLatency, d.hDone, uint64(fi), 0)
	}
}

// prefetch migrates up to PrefetchPages additional non-resident pages from
// the faulted page's 16-page aligned block, evicting as needed. Prefetched
// pages are reported to the policy via OnMapped only.
func (d *Driver) prefetch(page addrspace.PageID, seq int) {
	if d.cfg.PrefetchPages <= 0 {
		return
	}
	const block = 16
	base := page &^ (block - 1)
	brought := 0
	for off := addrspace.PageID(0); off < block && brought < d.cfg.PrefetchPages; off++ {
		p := base + off
		if p == page || d.memory.Resident(p) {
			continue
		}
		if fj, pending := d.inFlight[p]; pending {
			f := &d.faults[fj]
			if f.inService {
				// Its service channel owns it; resolving here would race.
				continue
			}
			// A queued fault for the same block: the migration satisfies it
			// now (fault batching, as real UVM runtimes do).
			if d.evictIfFull(p) {
				continue
			}
			if err := d.memory.Insert(p); err != nil {
				panic(fmt.Sprintf("uvm: prefetch insert failed: %v", err))
			}
			d.pol.OnFault(p, f.seq)
			d.pol.OnMapped(p, f.seq)
			d.stats.FaultsServiced++
			d.stats.Batched++
			if d.tenants != nil {
				d.chargeFault(p)
			}
			f.done = true
			delete(d.inFlight, p)
			if d.probe != nil {
				now := d.engine.Now()
				d.probe.Emit(probe.FaultEnd(now, p, f.seq, now-f.enq, true))
			}
			ws := f.wakeups
			f.wakeups = nil
			d.runWakeups(ws)
			brought++
			continue
		}
		if d.evictIfFull(p) {
			continue
		}
		if err := d.memory.Insert(p); err != nil {
			panic(fmt.Sprintf("uvm: prefetch insert failed: %v", err))
		}
		d.pol.OnMapped(p, seq)
		d.stats.Prefetched++
		if d.probe != nil {
			d.probe.Emit(probe.Prefetch(d.engine.Now(), p, seq))
		}
		brought++
	}
}

// evictIfFull frees one frame via the policy when memory is full, so that
// `trigger` can be mapped. It returns true when eviction was needed but
// impossible.
func (d *Driver) evictIfFull(trigger addrspace.PageID) bool {
	if !d.memory.Full() {
		return false
	}
	victim := d.pol.SelectVictim()
	if err := d.memory.Evict(victim); err != nil {
		return true
	}
	d.pol.OnEvicted(victim)
	if d.invalidate != nil {
		d.invalidate(victim)
	}
	d.stats.Evictions++
	if d.tenants != nil {
		d.chargeEviction(victim, trigger)
	}
	if d.probe != nil {
		d.probe.Emit(probe.Eviction(d.engine.Now(), victim, trigger))
	}
	return false
}

// complete finishes one fault: evict if full, map the page, notify the
// policy, wake the waiting warps, then free the channel — or, on a periodic
// HIR drain, hand it to the transfer, which frees it in drainDone.
func (d *Driver) complete(fi int32) {
	f := &d.faults[fi]
	d.pol.OnFault(f.page, f.seq)
	if d.memory.Full() {
		victim := d.pol.SelectVictim()
		if err := d.memory.Evict(victim); err != nil {
			panic(fmt.Sprintf("uvm: policy %s chose bad victim %v: %v", d.pol.Name(), victim, err))
		}
		d.pol.OnEvicted(victim)
		if d.invalidate != nil {
			d.invalidate(victim)
		}
		d.stats.Evictions++
		if d.tenants != nil {
			d.chargeEviction(victim, f.page)
		}
		if d.probe != nil {
			d.probe.Emit(probe.Eviction(d.engine.Now(), victim, f.page))
		}
	}
	if err := d.memory.Insert(f.page); err != nil {
		panic(fmt.Sprintf("uvm: insert after eviction failed: %v", err))
	}
	d.pol.OnMapped(f.page, f.seq)
	d.stats.FaultsServiced++
	if d.tenants != nil {
		d.chargeFault(f.page)
	}
	delete(d.inFlight, f.page)
	if d.probe != nil {
		now := d.engine.Now()
		d.probe.Emit(probe.FaultEnd(now, f.page, f.seq, now-f.enq, false))
	}

	// Copy out before prefetch/wakeups: both may allocate new faults and
	// grow the store, invalidating f.
	page, seq := f.page, f.seq
	ws := f.wakeups
	f.wakeups = nil
	d.faultFree = append(d.faultFree, fi)

	d.prefetch(page, seq)

	d.runWakeups(ws)

	// Periodic HIR drain: every TransferInterval-th serviced fault the HIR
	// contents cross PCIe; the transfer occupies this channel before it can
	// take the next fault, and the sink sees the records when it lands.
	if d.hirC != nil && d.cfg.TransferInterval > 0 &&
		d.stats.FaultsServiced%uint64(d.cfg.TransferInterval) == 0 {
		if recs := d.hirC.Drain(); len(recs) > 0 {
			bytes := d.hirC.TransferBytes(len(recs))
			transfer := sim.Cycle(math.Ceil(float64(bytes) / d.cfg.PCIeBytesPerCycle))
			d.stats.HIRTransferBytes += uint64(bytes)
			d.stats.HIRTransferCycles += transfer
			d.stats.BusyCycles += transfer
			if d.probe != nil {
				d.probe.Emit(probe.HIRDrain(d.engine.Now(), len(recs), bytes, transfer))
			}
			d.engine.ScheduleAfter(transfer, d.hDrain, uint64(d.allocBatch(recs)), 0)
			return
		}
	}
	d.busy--
	d.pump()
}

// allocBatch parks a drained batch in a free batch slot until its transfer
// completes.
func (d *Driver) allocBatch(recs []hir.Record) int32 {
	if n := len(d.batchFree); n > 0 {
		bi := d.batchFree[n-1]
		d.batchFree = d.batchFree[:n-1]
		d.batches[bi] = recs
		return bi
	}
	d.batches = append(d.batches, recs)
	return int32(len(d.batches) - 1)
}

// drainDone lands an HIR transfer: the sink (if any) receives the batch,
// then the channel the transfer occupied takes the next fault.
func (d *Driver) drainDone(bi int32) {
	recs := d.batches[bi]
	d.batches[bi] = nil
	d.batchFree = append(d.batchFree, bi)
	if d.sink != nil {
		d.sink.OnHitBatch(recs)
	}
	d.busy--
	d.pump()
}
