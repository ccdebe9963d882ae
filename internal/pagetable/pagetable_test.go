package pagetable

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"hpe/internal/addrspace"
)

// FuzzPageTable drives a Table and a builtin map through the same
// Put/Ref/Get/Delete sequence and requires the same answers and lengths. Each op
// byte picks the operation (low two bits) and one of 64 pages base +
// k·stride (high six bits), with wrapping arithmetic, so a corpus entry
// chooses whether its pages share leaves, sit far apart or straddle 0 and
// MaxUint64.
func FuzzPageTable(f *testing.F) {
	ops := make([]byte, 512)
	for i := range ops {
		ops[i] = byte(i*37 + i/7)
	}
	f.Add(uint64(0), uint64(1), ops)                  // one leaf, then its neighbour
	f.Add(uint64(0), uint64(1e6), ops)                // every page its own leaf
	f.Add(uint64(math.MaxUint64-31), uint64(1), ops)  // wraps from MaxUint64 to 0
	f.Add(uint64(math.MaxUint64), uint64(1<<58), ops) // MaxUint64 and far-apart leaves
	f.Add(uint64(1<<40), uint64(1<<6-1), []byte{0, 0, 2, 2, 3, 1, 3})
	f.Fuzz(func(t *testing.T, base, stride uint64, ops []byte) {
		tab := New[int32]()
		oracle := make(map[addrspace.PageID]int32)
		for i, op := range ops {
			p := addrspace.PageID(base + uint64(op>>2)*stride)
			switch op & 3 {
			case 0:
				tab.Put(p, int32(i))
				oracle[p] = int32(i)
			case 1:
				v := tab.Ref(p)
				if want := oracle[p]; *v != want {
					t.Fatalf("op %d: Ref(%#x) = %d, want %d", i, uint64(p), *v, want)
				}
				*v += int32(i)
				oracle[p] += int32(i)
			case 2:
				_, want := oracle[p]
				if got := tab.Delete(p); got != want {
					t.Fatalf("op %d: Delete(%#x) = %v, want %v", i, uint64(p), got, want)
				}
				delete(oracle, p)
			case 3:
				want, wantOK := oracle[p]
				if got, ok := tab.Get(p); got != want || ok != wantOK {
					t.Fatalf("op %d: Get(%#x) = %d, %v, want %d, %v", i, uint64(p), got, ok, want, wantOK)
				}
			}
			if tab.Len() != len(oracle) {
				t.Fatalf("op %d: Len = %d, want %d", i, tab.Len(), len(oracle))
			}
		}
		for p, want := range oracle {
			if got, ok := tab.Get(p); !ok || got != want {
				t.Fatalf("final Get(%#x) = %d, %v, want %d, true", uint64(p), got, ok, want)
			}
		}
	})
}

// TestSparseMemoryBound puts 100k pages spaced 1e6 apart, so each one gets
// a leaf of its own: the worst case for a radix table. Its live heap must
// stay linear in the pages touched: 100k leaves of 264 bytes (int32 values)
// plus the top-level map come to about 35 MiB, held under a 48 MiB limit;
// a flat array over the same range would need 1e11 entries.
func TestSparseMemoryBound(t *testing.T) {
	const (
		pages    = 100_000
		spacing  = 1_000_000
		limitMiB = 48
	)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	tab := New[int32]()
	for i := 0; i < pages; i++ {
		tab.Put(addrspace.PageID(i*spacing), int32(i))
	}
	after := heap()
	for i := 0; i < pages; i += 997 {
		if v, ok := tab.Get(addrspace.PageID(i * spacing)); !ok || v != int32(i) {
			t.Fatalf("Get(%d) = %d, %v, want %d, true", i*spacing, v, ok, i)
		}
	}
	if tab.Len() != pages {
		t.Fatalf("Len = %d, want %d", tab.Len(), pages)
	}
	runtime.KeepAlive(tab)
	if after < before {
		after = before
	}
	if mib := float64(after-before) / (1 << 20); mib > limitMiB {
		t.Errorf("%d sparse pages hold %.1f MiB of heap, want at most %d MiB", pages, mib, limitMiB)
	} else {
		t.Logf("%d sparse pages hold %.1f MiB of heap", pages, mib)
	}
}

// TestRowsAgainstMap writes and reads random cells of a Rows table against a
// builtin map, over page orders that grow the directory's window upward,
// downward, and past its density bound into the far map: ascending, descending,
// random within a dense range, and sparse.
func TestRowsAgainstMap(t *testing.T) {
	orders := map[string]func(i int) addrspace.PageID{
		"ascending":  func(i int) addrspace.PageID { return addrspace.PageID(1<<20 + i) },
		"descending": func(i int) addrspace.PageID { return addrspace.PageID(1<<20 - i) },
		"dense":      func(i int) addrspace.PageID { return addrspace.PageID(1<<20 + (i*7919)%20000) },
		"sparse":     func(i int) addrspace.PageID { return addrspace.PageID(uint64(i%97) * 1e6) },
	}
	for name, page := range orders {
		const width = 5
		r := NewRows(width, 64)
		oracle := make(map[addrspace.PageID][width]uint16)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 20000; i++ {
			p := page(i)
			if rng.Intn(4) == 0 {
				want := oracle[p]
				got := r.Lookup(p)
				for j := 0; j < width; j++ {
					var g uint16
					if got != nil {
						g = got[j]
					}
					if g != want[j] {
						t.Fatalf("%s op %d: Lookup(%d)[%d] = %d, want %d", name, i, p, j, g, want[j])
					}
				}
				continue
			}
			j, v := rng.Intn(width), uint16(rng.Intn(1000)+1)
			r.Row(p)[j] = v
			cells := oracle[p]
			cells[j] = v
			oracle[p] = cells
		}
		for p, want := range oracle {
			if got := r.Lookup(p); got == nil || [width]uint16(got) != want {
				t.Fatalf("%s: final Lookup(%d) = %v, want %v", name, p, got, want)
			}
		}
	}
}

// TestWindowStaysDense checks that the directory's window never holds more
// than about twice as many entries as leaves: leaves too far from it go to
// the far map instead of stretching it.
func TestWindowStaysDense(t *testing.T) {
	tab := New[int32]()
	for i := 0; i < 1000; i++ {
		tab.Put(addrspace.PageID(i*leafSize*3), int32(i)) // every third leaf
	}
	tab.Put(addrspace.PageID(1)<<40, 1) // far above
	d := &tab.dir
	if n := len(d.window); n > 2*d.windowed+windowSlack {
		t.Fatalf("window holds %d entries for %d leaves", n, d.windowed)
	}
	if len(d.far) == 0 {
		t.Fatal("no leaf went to the far map")
	}
	for i := 0; i < 1000; i++ {
		if v, ok := tab.Get(addrspace.PageID(i * leafSize * 3)); !ok || v != int32(i) {
			t.Fatalf("Get(leaf %d) = %d, %v", 3*i, v, ok)
		}
	}
}
