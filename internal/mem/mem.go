// Package mem models the GPU device memory as seen by the unified-memory
// runtime: a capacity-bounded set of resident virtual pages.
//
// The paper simplifies the page table to a single level with a fixed walk
// latency; the GPU simulator (package gpu) charges that latency, or the
// radix walker of package ptw in the translation study. Nothing reads
// physical frame numbers, so this package keeps only residency: which
// pages are mapped, and whether a free frame remains.
package mem

import (
	"errors"
	"fmt"

	"hpe/internal/addrspace"
)

// ErrFull is returned by Insert when no free frame exists; the caller (the
// UVM driver) must evict first.
var ErrFull = errors.New("mem: device memory full")

// ErrNotResident is returned by Evict for a page that is not mapped.
var ErrNotResident = errors.New("mem: page not resident")

// DeviceMemory is the set of GPU-resident pages, bounded by the device's
// capacity in frames.
type DeviceMemory struct {
	capacity int
	resident map[addrspace.PageID]struct{}
}

// NewDeviceMemory returns a memory with the given capacity in frames
// (pages). Capacity must be positive.
func NewDeviceMemory(capacityFrames int) *DeviceMemory {
	if capacityFrames <= 0 {
		panic(fmt.Sprintf("mem: capacity %d must be positive", capacityFrames))
	}
	return &DeviceMemory{
		capacity: capacityFrames,
		resident: make(map[addrspace.PageID]struct{}, capacityFrames),
	}
}

// Full reports whether no free frame remains.
func (m *DeviceMemory) Full() bool { return len(m.resident) == m.capacity }

// Resident reports whether the page is mapped.
func (m *DeviceMemory) Resident(p addrspace.PageID) bool {
	_, ok := m.resident[p]
	return ok
}

// Insert maps a page into a free frame. It returns ErrFull when the memory
// is at capacity. Inserting an already-resident page is a programming error
// and panics: the UVM driver must never double-map.
func (m *DeviceMemory) Insert(p addrspace.PageID) error {
	if _, ok := m.resident[p]; ok {
		panic(fmt.Sprintf("mem: double map of %v", p))
	}
	if m.Full() {
		return ErrFull
	}
	m.resident[p] = struct{}{}
	return nil
}

// Evict unmaps a resident page, freeing its frame.
func (m *DeviceMemory) Evict(p addrspace.PageID) error {
	if _, ok := m.resident[p]; !ok {
		return ErrNotResident
	}
	delete(m.resident, p)
	return nil
}
