package trace

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"

	"hpe/internal/addrspace"
)

func annotated() *Trace {
	return mustAnnotated("colo", []addrspace.PageID{100, 200, 101, 201, 102, 202}, []int{3},
		[]Segment{{Start: 0, Phase: 0, Gap: 2}, {Start: 3, Phase: 1, Gap: 5}},
		[]TenantRange{{Name: "HSD", Lo: 100, Hi: 150}, {Name: "BFS", Lo: 200, Hi: 260}},
	)
}

func TestAnnotatedCodecRoundTrip(t *testing.T) {
	tr := annotated()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[4]; got != traceVersionV2 {
		t.Fatalf("annotated trace wrote version %d, want %d", got, traceVersionV2)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Annotated() {
		t.Fatal("annotations lost in round trip")
	}
	if len(got.Segments) != len(tr.Segments) {
		t.Fatalf("segments: got %d, want %d", len(got.Segments), len(tr.Segments))
	}
	for i := range tr.Segments {
		if got.Segments[i] != tr.Segments[i] {
			t.Errorf("segment %d: got %+v, want %+v", i, got.Segments[i], tr.Segments[i])
		}
	}
	if len(got.Tenants) != len(tr.Tenants) {
		t.Fatalf("tenants: got %d, want %d", len(got.Tenants), len(tr.Tenants))
	}
	for i := range tr.Tenants {
		if got.Tenants[i] != tr.Tenants[i] {
			t.Errorf("tenant %d: got %+v, want %+v", i, got.Tenants[i], tr.Tenants[i])
		}
	}
}

// TestUnannotatedWritesV1Bytes pins the satellite requirement: a stationary
// trace serializes byte-identically to the pre-annotation encoder (version
// byte 2, no trailing tables), so existing .hpet files never change.
func TestUnannotatedWritesV1Bytes(t *testing.T) {
	tr := mustNew("plain", []addrspace.PageID{7, 8, 9, 7}, 2)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if b[4] != traceVersionV1 {
		t.Fatalf("unannotated trace wrote version %d, want %d", b[4], traceVersionV1)
	}
	// The v1 header is magic, version, name length, name; the stream ends at
	// the barrier table with no trailing annotation bytes.
	want := append([]byte{'H', 'P', 'E', 'T', traceVersionV1, 5}, "plain"...)
	if !bytes.HasPrefix(b, want) {
		t.Fatalf("v1 prefix changed: % x", b[:len(want)])
	}
	wantLen := len(want) + 1 /*ref count*/ + 4 /*single-byte deltas*/ + 1 /*barrier count*/ + 1 /*barrier delta*/
	if len(b) != wantLen {
		t.Fatalf("v1 stream length %d, want %d (trailing bytes would break old readers)", len(b), wantLen)
	}
	got, err := Read(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if got.Annotated() {
		t.Fatal("v1 stream decoded with annotations")
	}
}

func TestTenantOf(t *testing.T) {
	tr := annotated()
	cases := []struct {
		p    addrspace.PageID
		want int
	}{{100, 0}, {149, 0}, {150, -1}, {200, 1}, {259, 1}, {260, -1}, {0, -1}}
	for _, c := range cases {
		if got := TenantIndex(tr.Tenants, c.p); got != c.want {
			t.Errorf("TenantIndex(%d) = %d, want %d", c.p, got, c.want)
		}
	}
}

// TestConcurrentReadersOfFreshTrace shares a trace nobody has read yet
// among many goroutines. A trace is immutable from construction, so under
// -race (make workload-check) a lazy memo written by a reader fails here.
func TestConcurrentReadersOfFreshTrace(t *testing.T) {
	tr := annotated()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if fp := tr.Footprint(); fp != 6 {
				t.Errorf("Footprint = %d, want 6", fp)
			}
			for i, p := range tr.Refs {
				if got, want := TenantIndex(tr.Tenants, p), i%2; got != want {
					t.Errorf("TenantIndex(%d) = %d, want %d", p, got, want)
				}
			}
		}()
	}
	wg.Wait()
}

// TestAnnotateRejectsBadSegments checks that New refuses every segment table
// that breaks a rule, with an error rather than a panic.
func TestAnnotateRejectsBadSegments(t *testing.T) {
	for name, segs := range map[string][]Segment{
		"nonzero-first":   {{Start: 1, Gap: 1}},
		"not-ascending":   {{Start: 0}, {Start: 0}},
		"past-end":        {{Start: 0}, {Start: 99}},
		"negative-gap":    {{Start: 0, Gap: -1}},
		"negative-phase":  {{Start: 0, Phase: -1}},
		"gap-too-large":   {{Start: 0, Gap: maxSegmentField + 1}},
		"phase-too-large": {{Start: 0, Phase: maxSegmentField + 1}},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := New("x", []addrspace.PageID{1, 2, 3}, nil, segs, nil); err == nil {
				t.Fatalf("New accepted segments %v", segs)
			}
		})
	}
}

// TestAnnotateRejectsBadTenants checks that New refuses empty and
// overlapping tenant ranges.
func TestAnnotateRejectsBadTenants(t *testing.T) {
	for name, tens := range map[string][]TenantRange{
		"empty-range": {{Name: "A", Lo: 5, Hi: 5}},
		"overlap":     {{Name: "A", Lo: 0, Hi: 10}, {Name: "B", Lo: 9, Hi: 20}},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := New("x", []addrspace.PageID{1}, nil, nil, tens); err == nil {
				t.Fatalf("New accepted tenants %v", tens)
			}
		})
	}
}

// TestNewCleansBarriers checks that New drops duplicate and end-of-trace
// barriers and refuses descending or negative ones.
func TestNewCleansBarriers(t *testing.T) {
	refs := []addrspace.PageID{1, 2, 3, 4}
	tr, err := New("b", refs, []int{0, 1, 1, 3, 4, 9}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(tr.Barriers, []int{1, 3}) {
		t.Fatalf("barriers = %v, want [1 3]", tr.Barriers)
	}
	for _, bad := range [][]int{{2, 1}, {-1}} {
		if _, err := New("b", refs, bad, nil, nil); err == nil {
			t.Errorf("New accepted barriers %v", bad)
		}
	}
}

func TestReadRejectsMalformedAnnotations(t *testing.T) {
	tr := annotated()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Truncations anywhere inside the annotation tables must error, not panic.
	for cut := len(full) - 1; cut > len(full)-12 && cut > 0; cut-- {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// A v2 version byte on a v1 body must error on the missing tables.
	plain := mustNew("p", []addrspace.PageID{1, 2})
	buf.Reset()
	if err := plain.Write(&buf); err != nil {
		t.Fatal(err)
	}
	b := append([]byte(nil), buf.Bytes()...)
	b[4] = traceVersionV2
	if _, err := Read(bytes.NewReader(b)); err == nil {
		t.Error("v2 header without annotation tables accepted")
	} else if !strings.Contains(err.Error(), "segment") {
		t.Errorf("unexpected error: %v", err)
	}
}
