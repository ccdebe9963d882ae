// Package uvm models the unified-memory software runtime of Section II: the
// GPU driver on the host CPU that services far-faults. Faults queue at the
// driver and are serviced with the paper's fixed 20 µs latency, which covers
// the page-table lookup, any eviction, and the PCIe page migration.
// Duplicate faults on an in-flight page coalesce. When HPE is active, the
// driver also drains the HIR cache every nth serviced fault and charges the
// PCIe transfer latency of the drained records to simulated time, exactly as
// the paper's evaluation does.
//
// The driver owns each page's device-memory state in one page table: a page
// is resident, has a fault pending, or (no entry) is on the host. Nothing
// reads physical frame numbers, so residency is that table plus a count of
// mapped pages against the capacity in frames.
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
	"hpe/internal/pagetable"
	"hpe/internal/policy"
	"hpe/internal/probe"
	"hpe/internal/sim"
	"hpe/internal/trace"
)

// HitBatchReceiver is implemented by policies (HPE) that consume HIR drains.
type HitBatchReceiver interface {
	OnHitBatch([]hir.Record)
}

// Waker resumes the accesses blocked on a far-fault. The GPU registers one
// (SetWaker), the way components register an event handler with the
// engine, and keeps the blocked accesses itself: a wakeup costs no closure.
type Waker interface {
	// Wake reports that page p's fault is resolved: once per fault,
	// however many Fault calls coalesced onto it, whether its service
	// completed or a block prefetch resolved it early. p is resident
	// unless the fault's own block prefetch evicted it again.
	Wake(p addrspace.PageID)
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
	inService bool      // dispatched to a channel
	done      bool      // resolved early by a block prefetch
}

// resident is the page-table value of a mapped page. A page with a fault
// pending holds its fault-store index (≥ 0) instead.
const resident int32 = -1

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
	pol    policy.Policy
	hirC   *hir.Cache // nil when the active policy does not use HIR
	sink   HitBatchReceiver

	// invalidate is called for every evicted page so the GPU can shoot down
	// stale TLB entries.
	invalidate func(addrspace.PageID)
	waker      Waker // resumes faulted accesses (SetWaker)

	// pages maps a page to resident or to its pending fault's index;
	// mapped counts the resident pages against frames, the capacity.
	pages  *pagetable.Table[int32]
	mapped int
	frames int

	// Faults live in a slice-backed store with a free list; the queue and
	// the page table refer to them by index. This keeps fault-heavy runs
	// from allocating one node per fault and gives the GC nothing to chase.
	faults    []pendingFault
	faultFree []int32
	queue     []int32       // waiting, FIFO (enqueue)
	qhead     int           // index of the oldest waiting fault in queue
	hDone     sim.HandlerID // serviceDoneEvent registration
	busy      int           // channels in use

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

// New wires a driver for a device memory of frames pages. invalidate may be
// nil (no TLB shootdown — used by unit tests). If the policy implements
// HitBatchReceiver and hirCache is non-nil, drains are delivered to it.
func New(cfg Config, engine *sim.Engine, frames int, pol policy.Policy,
	hirCache *hir.Cache, invalidate func(addrspace.PageID)) *Driver {
	if cfg.FaultLatency == 0 {
		panic("uvm: zero fault latency")
	}
	if frames <= 0 {
		panic(fmt.Sprintf("uvm: device memory of %d frames must be positive", frames))
	}
	if cfg.Channels <= 0 {
		cfg.Channels = 1
	}
	d := &Driver{
		cfg:        cfg,
		engine:     engine,
		pol:        pol,
		hirC:       hirCache,
		invalidate: invalidate,
		pages:      pagetable.New[int32](),
		frames:     frames,
	}
	d.hDone = engine.Register((*serviceDoneEvent)(d))
	d.hDrain = engine.Register((*drainDoneEvent)(d))
	if sink, ok := pol.(HitBatchReceiver); ok {
		d.sink = sink
	}
	return d
}

// SetWaker registers the handler that resumes faulted accesses. Call it
// before the first Fault.
func (d *Driver) SetWaker(w Waker) { d.waker = w }

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
func (d *Driver) Pending() int { return len(d.queue) - d.qhead }

// Resident reports whether page p is mapped in device memory.
func (d *Driver) Resident(p addrspace.PageID) bool {
	v, ok := d.pages.Get(p)
	return ok && v == resident
}

// Full reports whether no free frame remains.
func (d *Driver) Full() bool { return d.mapped == d.frames }

// Prepopulate maps pages before the run starts, without faults, and reports
// each to the policy as mapped. They must fit in device memory.
func (d *Driver) Prepopulate(pages []addrspace.PageID) {
	for _, p := range pages {
		d.mapPage(p)
		d.pol.OnMapped(p, 0)
	}
}

// mapPage marks p resident in a free frame. Mapping a resident page, or
// mapping into full memory, is a driver bug and panics.
func (d *Driver) mapPage(p addrspace.PageID) {
	if d.Resident(p) {
		panic(fmt.Sprintf("uvm: double map of %v", p))
	}
	if d.Full() {
		panic(fmt.Sprintf("uvm: map of %v into full memory", p))
	}
	d.pages.Put(p, resident)
	d.mapped++
}

// RecordWalkHit forwards a page-walk hit to the policy (the baselines' ideal
// feed and HPE's IdealHitFeed mode) and to the HIR cache when present.
func (d *Driver) RecordWalkHit(p addrspace.PageID, seq int) {
	d.pol.OnWalkHit(p, seq)
	if d.hirC != nil {
		d.hirC.RecordHit(p)
	}
}

// Fault reports a far-fault on page p observed at trace position seq; the
// Waker hears of p once it is resident. Duplicate faults coalesce onto the
// in-flight or queued fault for the same page.
func (d *Driver) Fault(p addrspace.PageID, seq int) {
	if fi, ok := d.pages.Get(p); ok {
		if fi == resident {
			// Raced with a completion: the page is already here.
			d.waker.Wake(p)
			return
		}
		d.stats.Coalesced++
		if d.probe != nil {
			d.probe.Emit(probe.Coalesce(d.engine.Now(), p, seq))
		}
		return
	}
	fi := d.allocFault()
	f := &d.faults[fi]
	*f = pendingFault{page: p, seq: seq, enq: d.engine.Now()}
	d.enqueue(fi)
	d.pages.Put(p, fi)
	if n := d.Pending(); n > d.stats.MaxQueueDepth {
		d.stats.MaxQueueDepth = n
	}
	if d.probe != nil {
		d.probe.Emit(probe.FaultBegin(f.enq, p, seq, d.Pending()))
	}
	d.pump()
}

// enqueue appends fault fi to the wait queue. When the backing array is
// full and at least half of it lies before the head, the waiting entries
// slide to the front first, so the queue reuses its storage as the head
// advances and allocates only to grow past its deepest backlog.
func (d *Driver) enqueue(fi int32) {
	if len(d.queue) == cap(d.queue) && d.qhead >= len(d.queue)/2 {
		n := copy(d.queue, d.queue[d.qhead:])
		d.queue, d.qhead = d.queue[:n], 0
	}
	d.queue = append(d.queue, fi)
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

// pump dispatches queued faults onto free channels.
func (d *Driver) pump() {
	frac := d.cfg.HostBusyFraction
	if frac <= 0 || frac > 1 {
		frac = 1
	}
	for d.busy < d.cfg.Channels && d.qhead < len(d.queue) {
		fi := d.queue[d.qhead]
		d.qhead++
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
		fj, ok := d.pages.Get(p)
		if p == page || ok && fj == resident {
			continue
		}
		if ok {
			f := &d.faults[fj]
			if f.inService {
				// Its service channel owns it; resolving here would race.
				continue
			}
			// A queued fault for the same block: the migration satisfies it
			// now (fault batching, as real UVM runtimes do). The slot stays
			// queued until pump drops it.
			d.evictIfFull(p)
			d.mapPage(p)
			d.pol.OnFault(p, f.seq)
			d.pol.OnMapped(p, f.seq)
			d.stats.FaultsServiced++
			d.stats.Batched++
			if d.tenants != nil {
				d.chargeFault(p)
			}
			f.done = true
			if d.probe != nil {
				now := d.engine.Now()
				d.probe.Emit(probe.FaultEnd(now, p, f.seq, now-f.enq, true))
			}
			d.waker.Wake(p)
			brought++
			continue
		}
		d.evictIfFull(p)
		d.mapPage(p)
		d.pol.OnMapped(p, seq)
		d.stats.Prefetched++
		if d.probe != nil {
			d.probe.Emit(probe.Prefetch(d.engine.Now(), p, seq))
		}
		brought++
	}
}

// evictIfFull frees one frame via the policy when memory is full, so that
// `trigger` can be mapped. A victim that is not resident breaks the Policy
// contract and panics.
func (d *Driver) evictIfFull(trigger addrspace.PageID) {
	if !d.Full() {
		return
	}
	victim := d.pol.SelectVictim()
	if !d.Resident(victim) {
		panic(fmt.Sprintf("uvm: policy %s chose bad victim %v: page not resident", d.pol.Name(), victim))
	}
	d.pages.Delete(victim)
	d.mapped--
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
}

// complete finishes one fault: evict if full, map the page, notify the
// policy, wake the waiting warps, then free the channel — or, on a periodic
// HIR drain, hand it to the transfer, which frees it in drainDone.
func (d *Driver) complete(fi int32) {
	f := &d.faults[fi]
	page, seq, enq := f.page, f.seq, f.enq
	serviced := d.stats.FaultsServiced
	d.pol.OnFault(page, seq)
	d.evictIfFull(page)
	d.mapPage(page)
	d.pol.OnMapped(page, seq)
	d.stats.FaultsServiced++
	if d.tenants != nil {
		d.chargeFault(page)
	}
	if d.probe != nil {
		now := d.engine.Now()
		d.probe.Emit(probe.FaultEnd(now, page, seq, now-enq, false))
	}

	d.prefetch(page, seq)

	d.waker.Wake(page)
	d.faultFree = append(d.faultFree, fi)

	// Periodic HIR drain: every TransferInterval-th serviced fault the HIR
	// contents cross PCIe; the transfer occupies this channel before it can
	// take the next fault, and the sink sees the records when it lands. The
	// queued faults a block prefetch resolved count too, so the drain is due
	// when this completion carried the count past a multiple of the
	// interval.
	if n := uint64(d.cfg.TransferInterval); d.hirC != nil && n > 0 &&
		d.stats.FaultsServiced/n > serviced/n {
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
