package flight

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestDedupComputesOncePerKey(t *testing.T) {
	var m Memo[string, int]
	var computes atomic.Int32

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				v, _ := m.Do("k", func() (int, bool) {
					computes.Add(1)
					return 42, true
				})
				if v != 42 {
					t.Error("Do returned wrong value")
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	if len(m.wip) != 0 {
		t.Fatalf("%d inflight entries leaked", len(m.wip))
	}
}

func TestDedupRecoversFromPanic(t *testing.T) {
	var m Memo[string, int]

	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate")
			}
		}()
		m.Do("k", func() (int, bool) { panic("boom") })
	}()
	if len(m.wip) != 0 {
		t.Fatal("panicked flight left in the inflight table")
	}
	// The key is reclaimable after the failure.
	v, computed := m.Do("k", func() (int, bool) { return 7, true })
	if v != 7 || !computed {
		t.Fatalf("retry after panic = (%d, %v), want (7, true)", v, computed)
	}
}

// TestDedupUncacheableNeverPublished is the cancellation-semantics contract:
// a compute that declares its value uncacheable (a cancelled, partial
// simulation) hands the value to this round's waiters but never publishes it
// — a later caller recomputes. Concurrent readers racing the uncacheable
// flight must never observe the poisoned value in the memo.
func TestDedupUncacheableNeverPublished(t *testing.T) {
	var m Memo[string, int]

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m.mu.Lock()
				v, cached := m.vals["k"]
				m.mu.Unlock()
				if cached && v == -1 {
					t.Error("uncacheable value observed in the cache")
					return
				}
			}
		}()
	}
	v, computed := m.Do("k", func() (int, bool) { return -1, false })
	if v != -1 || !computed {
		t.Fatalf("uncacheable compute = (%d, %v), want (-1, true)", v, computed)
	}
	wg.Wait()
	if m.Len() != 0 {
		t.Fatal("uncacheable value was published to the cache")
	}
	if len(m.wip) != 0 {
		t.Fatal("inflight entry leaked")
	}
	// The key recomputes for the next caller.
	v, computed = m.Do("k", func() (int, bool) { return 9, true })
	if v != 9 || !computed {
		t.Fatalf("recompute after uncacheable = (%d, %v), want (9, true)", v, computed)
	}
	if m.vals["k"] != 9 {
		t.Fatal("cacheable recompute was not published")
	}
}
