package pagetable

import (
	"math/rand"
	"testing"

	"hpe/internal/addrspace"
)

// TestPageMapAgainstGoMap churns a Map with randomized put/del/get
// against a builtin map oracle, using a small key universe so probe chains
// collide, wrap, and exercise backward-shift deletion.
func TestPageMapAgainstGoMap(t *testing.T) {
	for _, capacity := range []int{1, 4, 128, 512} {
		m := NewMap(capacity)
		oracle := make(map[addrspace.PageID]int32)
		rng := rand.New(rand.NewSource(int64(capacity)))
		for op := 0; op < 50000; op++ {
			p := addrspace.PageID(rng.Intn(capacity * 4))
			switch rng.Intn(3) {
			case 0:
				if len(oracle) < capacity { // respect the fixed-capacity contract
					v := int32(rng.Intn(1 << 20))
					m.Put(p, v)
					oracle[p] = v
				}
			case 1:
				m.Delete(p)
				delete(oracle, p)
			default:
				want, ok := oracle[p]
				got := m.Get(p)
				if ok && got != want {
					t.Fatalf("cap %d op %d: get(%d) = %d, want %d", capacity, op, p, got, want)
				}
				if !ok && got != -1 {
					t.Fatalf("cap %d op %d: get(%d) = %d, want -1", capacity, op, p, got)
				}
			}
			if m.Len() != len(oracle) {
				t.Fatalf("cap %d op %d: len %d, oracle %d", capacity, op, m.Len(), len(oracle))
			}
		}
	}
}

// TestPageMapUpdateInPlace checks that put on an existing key overwrites
// without growing.
func TestPageMapUpdateInPlace(t *testing.T) {
	m := NewMap(8)
	m.Put(42, 1)
	m.Put(42, 7)
	if m.Len() != 1 {
		t.Fatalf("len = %d after duplicate put, want 1", m.Len())
	}
	if m.Get(42) != 7 {
		t.Fatalf("get = %d, want 7", m.Get(42))
	}
}
