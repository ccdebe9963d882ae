// Package addrspace defines the address-space vocabulary shared by every
// component of the simulator: virtual page identifiers, page-set identifiers
// (the HPE management unit), and the arithmetic between byte addresses,
// pages, and page sets.
//
// The paper uses 4-KB OS pages (the default page size in current GPUs) and a
// default page-set size of 16 pages, i.e. a page set spans 64 KB of virtually
// contiguous address space — the same granularity as the "chunk" in NVIDIA
// Pascal-class GPUs.
package addrspace

import "fmt"

// PageShift is log2 of the OS page size in bytes (4 KB pages).
const PageShift = 12

// PageBytes is the OS page size in bytes.
const PageBytes = 1 << PageShift

// DefaultSetShift is log2 of the default page-set size in pages. The paper's
// sensitivity study (Fig. 7) tests 8, 16 and 32 and settles on 16.
const DefaultSetShift = 4

// DefaultSetSize is the default number of pages per page set.
const DefaultSetSize = 1 << DefaultSetShift

// PageID identifies a virtual page (a virtual byte address shifted right by
// PageShift).
type PageID uint64

// SetID identifies a page set: a group of 2^setShift virtually contiguous
// pages. SetIDs are only meaningful together with the Geometry that produced
// them.
type SetID uint64

// NoPage is a sentinel PageID that never identifies a real page.
const NoPage = PageID(^uint64(0))

// VAddr is a virtual byte address.
type VAddr uint64

// BaseAddr returns the first byte address of a page.
func (p PageID) BaseAddr() VAddr { return VAddr(p) << PageShift }

// String renders a PageID in hex, the way the paper writes page addresses.
func (p PageID) String() string { return fmt.Sprintf("page:%#x", uint64(p)) }

// String renders a SetID in hex.
func (s SetID) String() string { return fmt.Sprintf("set:%#x", uint64(s)) }

// Geometry captures the page-set partitioning of the virtual address space.
// The zero Geometry is not valid; construct one with NewGeometry.
type Geometry struct {
	setShift uint
}

// NewGeometry returns a Geometry for page sets of size 2^setShift pages.
// setShift must be in [0, 16]; the paper evaluates shifts 3, 4 and 5
// (sizes 8, 16 and 32).
func NewGeometry(setShift uint) Geometry {
	if setShift > 16 {
		panic(fmt.Sprintf("addrspace: set shift %d out of range [0,16]", setShift))
	}
	return Geometry{setShift: setShift}
}

// DefaultGeometry returns the paper's default geometry (16-page sets).
func DefaultGeometry() Geometry { return NewGeometry(DefaultSetShift) }

// SetSize returns the number of pages in a page set.
func (g Geometry) SetSize() int { return 1 << g.setShift }

// SetOf returns the page set containing a page.
func (g Geometry) SetOf(p PageID) SetID { return SetID(uint64(p) >> g.setShift) }

// Offset returns the index of a page within its page set, in [0, SetSize).
func (g Geometry) Offset(p PageID) int {
	return int(uint64(p) & (uint64(g.SetSize()) - 1))
}

// FirstPage returns the first (lowest-addressed) page of a set.
func (g Geometry) FirstPage(s SetID) PageID { return PageID(uint64(s) << g.setShift) }

// PageAt returns the page at a given offset within a set.
func (g Geometry) PageAt(s SetID, offset int) PageID {
	if offset < 0 || offset >= g.SetSize() {
		panic(fmt.Sprintf("addrspace: offset %d out of range for set size %d", offset, g.SetSize()))
	}
	return PageID(uint64(s)<<g.setShift | uint64(offset))
}
