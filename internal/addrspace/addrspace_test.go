package addrspace

import (
	"testing"
	"testing/quick"
)

func TestBaseAddr(t *testing.T) {
	cases := []struct {
		page PageID
		addr VAddr
	}{
		{0, 0x0},
		{1, 0x1000},
		{5, 0x5000},
		{0x80000, 0x80000000},
	}
	for _, c := range cases {
		if got := c.page.BaseAddr(); got != c.addr {
			t.Errorf("BaseAddr(%v) = %#x, want %#x", c.page, got, c.addr)
		}
	}
}

func TestGeometrySetArithmetic(t *testing.T) {
	g := DefaultGeometry()
	if g.SetSize() != 16 {
		t.Fatalf("default set size = %d, want 16", g.SetSize())
	}
	// Paper's example: page set 8000 with size 16 covers pages 0x80000..0x8000f.
	s := SetID(0x8000)
	if g.FirstPage(s) != PageID(0x80000) {
		t.Errorf("FirstPage(0x8000) = %v, want page 0x80000", g.FirstPage(s))
	}
	for off := 0; off < 16; off++ {
		p := g.PageAt(s, off)
		if want := PageID(0x80000 + uint64(off)); p != want {
			t.Errorf("PageAt(0x8000,%d) = %v, want %v", off, p, want)
		}
		if g.SetOf(p) != s {
			t.Errorf("SetOf(%v) = %v, want %v", p, g.SetOf(p), s)
		}
		if g.Offset(p) != off {
			t.Errorf("Offset(%v) = %d, want %d", p, g.Offset(p), off)
		}
	}
}

func TestGeometrySizes(t *testing.T) {
	for _, shift := range []uint{3, 4, 5} {
		g := NewGeometry(shift)
		if g.SetSize() != 1<<shift {
			t.Errorf("shift %d: size = %d, want %d", shift, g.SetSize(), 1<<shift)
		}
	}
}

func TestGeometryInvalidShiftPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewGeometry(17) did not panic")
		}
	}()
	NewGeometry(17)
}

func TestPageAtOutOfRangePanics(t *testing.T) {
	g := DefaultGeometry()
	defer func() {
		if recover() == nil {
			t.Error("PageAt with offset 16 did not panic for 16-page sets")
		}
	}()
	g.PageAt(0, 16)
}

// Property: for every geometry and page, SetOf/Offset decompose the page and
// PageAt recomposes it exactly.
func TestGeometryDecomposeRecomposeProperty(t *testing.T) {
	f := func(raw uint64, shiftSeed uint8) bool {
		shift := uint(shiftSeed % 17)
		g := NewGeometry(shift)
		p := PageID(raw >> 16) // keep headroom so SetID<<shift cannot overflow
		s := g.SetOf(p)
		off := g.Offset(p)
		return g.PageAt(s, off) == p && off >= 0 && off < g.SetSize()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: pages in the same set are within SetSize of each other and share
// every address bit above the set shift.
func TestGeometrySetContiguityProperty(t *testing.T) {
	f := func(raw uint32) bool {
		g := DefaultGeometry()
		s := SetID(raw)
		first := g.FirstPage(s)
		for off := 0; off < g.SetSize(); off++ {
			if g.PageAt(s, off) != first+PageID(off) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
