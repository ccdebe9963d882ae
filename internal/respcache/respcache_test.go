package respcache

import (
	"reflect"
	"testing"
)

func TestLRUEviction(t *testing.T) {
	c := New(10)
	c.Put("a", []byte("aaaa"), "") // 4 bytes
	c.Put("b", []byte("bbbb"), "") // 8 bytes
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before budget pressure")
	}
	// a is now most recently used; inserting 4 more bytes must evict b.
	c.Put("c", []byte("cccc"), "")
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction despite being least recently used")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a evicted despite being most recently used")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c missing right after insertion")
	}
	st := c.Snapshot()
	if st.Evictions != 1 || st.Entries != 2 || st.Bytes != 8 {
		t.Errorf("stats after eviction: %+v", st)
	}
}

func TestOversizedBodySkipped(t *testing.T) {
	c := New(4)
	c.Put("big", []byte("too large"), "")
	if _, ok := c.Get("big"); ok {
		t.Error("body larger than the whole budget was cached")
	}
	if st := c.Snapshot(); st.Bytes != 0 || st.Entries != 0 {
		t.Errorf("oversized Put leaked accounting: %+v", st)
	}
}

func TestReinsertRefreshesRecency(t *testing.T) {
	c := New(8)
	c.Put("a", []byte("aaaa"), "")
	c.Put("b", []byte("bbbb"), "")
	c.Put("a", []byte("aaaa"), "") // refresh, not duplicate
	c.Put("c", []byte("cccc"), "") // must evict b, not a
	if _, ok := c.Get("a"); !ok {
		t.Error("re-inserted entry was evicted")
	}
	if _, ok := c.Get("b"); ok {
		t.Error("stale entry survived")
	}
}

func TestDisabled(t *testing.T) {
	c := New(-1)
	c.Put("a", []byte("aaaa"), "")
	if _, ok := c.Get("a"); ok {
		t.Error("negative budget should disable caching")
	}
}

func TestIDsCanonicalOrder(t *testing.T) {
	c := New(1 << 20)
	for _, id := range []string{"run-v2-zz", "run-v2-aa", "suite-00", "run-v2-mm"} {
		c.Put(id, []byte("x"), "label "+id)
	}
	want := []Entry{{"run-v2-aa", "label run-v2-aa"}, {"run-v2-mm", "label run-v2-mm"},
		{"run-v2-zz", "label run-v2-zz"}, {"suite-00", "label suite-00"}}
	if got := c.Entries(); !reflect.DeepEqual(got, want) {
		t.Errorf("Entries() = %v, want canonical order %v", got, want)
	}
}
