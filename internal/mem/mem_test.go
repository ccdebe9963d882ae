package mem

import (
	"errors"
	"testing"
	"testing/quick"

	"hpe/internal/addrspace"
)

func TestInsertEvictLifecycle(t *testing.T) {
	m := NewDeviceMemory(2)
	if m.Full() || m.Resident(10) {
		t.Fatal("fresh memory is full or has a resident page")
	}
	if err := m.Insert(10); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert(20); err != nil {
		t.Fatal(err)
	}
	if !m.Full() || !m.Resident(10) || !m.Resident(20) {
		t.Fatalf("after two inserts: full=%v resident(10)=%v resident(20)=%v", m.Full(), m.Resident(10), m.Resident(20))
	}
	if err := m.Insert(30); !errors.Is(err, ErrFull) {
		t.Fatalf("Insert into full memory: err = %v, want ErrFull", err)
	}
	if m.Resident(30) {
		t.Fatal("rejected insert left the page resident")
	}
	if err := m.Evict(10); err != nil {
		t.Fatal(err)
	}
	if m.Resident(10) || !m.Resident(20) || m.Full() {
		t.Fatal("residency wrong after evict")
	}
	if err := m.Insert(30); err != nil {
		t.Fatalf("freed frame not reusable: %v", err)
	}
	if !m.Full() || !m.Resident(30) {
		t.Fatalf("after refill: full=%v resident(30)=%v", m.Full(), m.Resident(30))
	}
}

func TestEvictNotResident(t *testing.T) {
	m := NewDeviceMemory(1)
	if err := m.Evict(99); !errors.Is(err, ErrNotResident) {
		t.Fatalf("err = %v, want ErrNotResident", err)
	}
}

func TestDoubleMapPanics(t *testing.T) {
	m := NewDeviceMemory(4)
	m.Insert(1)
	defer func() {
		if recover() == nil {
			t.Error("double map did not panic")
		}
	}()
	m.Insert(1)
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewDeviceMemory(0) did not panic")
		}
	}()
	NewDeviceMemory(0)
}

// Property: after any sequence of inserts and evicts, the resident set
// matches a model set, never exceeds the capacity in frames, and Insert
// fails with ErrFull exactly when every frame is taken.
func TestFrameConservationProperty(t *testing.T) {
	const capacity = 8
	f := func(ops []uint8) bool {
		m := NewDeviceMemory(capacity)
		resident := map[addrspace.PageID]bool{}
		for _, op := range ops {
			p := addrspace.PageID(op % 16)
			if resident[p] {
				if err := m.Evict(p); err != nil {
					return false
				}
				delete(resident, p)
			} else {
				err := m.Insert(p)
				if errors.Is(err, ErrFull) {
					if len(resident) != capacity {
						return false
					}
					continue
				}
				if err != nil {
					return false
				}
				resident[p] = true
			}
			if m.Full() != (len(resident) == capacity) {
				return false
			}
			for q := addrspace.PageID(0); q < 16; q++ {
				if m.Resident(q) != resident[q] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
