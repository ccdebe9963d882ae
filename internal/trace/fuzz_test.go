package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"hpe/internal/addrspace"
)

// ruleBreakingStream is a well-framed .hpet stream whose decoded contents
// break one rule that New checks.
type ruleBreakingStream struct {
	rule string
	raw  []byte
}

// ruleBreakingStreams returns one stream per rule New checks on decoded
// input. Each header is magic, version, name length 0, two references of
// page 0, then the barrier table and, in v2, the annotation tables.
func ruleBreakingStreams() []ruleBreakingStream {
	stream := func(version byte, fields ...uint64) []byte {
		b := append([]byte("HPET"), version)
		b = binary.AppendUvarint(b, 0) // name length
		b = append(b, 2, 0, 0)         // two refs, zero deltas
		for _, v := range fields {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	return []ruleBreakingStream{
		// The second barrier delta wraps the position from 1 back to 0.
		{"descending barriers", stream(traceVersionV1, 2, 1, math.MaxUint64)},
		{"first segment not at 0", stream(traceVersionV2, 0, 1, 1, 0, 0, 0)},
		{"non-ascending segments", stream(traceVersionV2, 0, 2, 0, 0, 0, 0, 1, 0, 0)},
		// Tenant B's low-page delta wraps below tenant A's high page.
		{"overlapping tenants", stream(traceVersionV2, 0, 0, 2, 1, 'A', 0, 10, 1, 'B', math.MaxUint64-4, 3)},
		{"phase out of range", stream(traceVersionV2, 0, 1, 0, maxSegmentField+1, 0, 0)},
		{"gap out of range", stream(traceVersionV2, 0, 1, 0, 0, maxSegmentField+1, 0)},
	}
}

// TestReadRejectsBrokenRules checks that Read turns every rule New enforces
// into ErrBadTrace, never a panic.
func TestReadRejectsBrokenRules(t *testing.T) {
	for _, c := range ruleBreakingStreams() {
		if _, err := Read(bytes.NewReader(c.raw)); !errors.Is(err, ErrBadTrace) {
			t.Errorf("%s: Read error %v, want ErrBadTrace", c.rule, err)
		}
	}
}

// FuzzRead ensures the binary codec never panics or over-allocates on
// arbitrary input, and that anything it accepts round-trips identically.
func FuzzRead(f *testing.F) {
	// Seed corpus: valid traces of several shapes plus truncations.
	seed := func(name string, refs []addrspace.PageID, barriers []int) {
		var buf bytes.Buffer
		if err := mustNew(name, refs, barriers...).Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		if buf.Len() > 3 {
			f.Add(buf.Bytes()[:buf.Len()/2])
		}
	}
	seed("", nil, nil)
	seed("one", []addrspace.PageID{42}, nil)
	seed("span", []addrspace.PageID{0, 1 << 40, 7, 7, 3}, []int{2, 4})
	f.Add([]byte("HPET"))
	f.Add([]byte("HPET\x02\x00\x03"))
	f.Add([]byte("HPET\x03\x00\x00\x00\x00")) // v2 header, empty body
	{
		// An annotated (v2) trace plus a truncation inside its tables.
		tr := mustAnnotated("anno", []addrspace.PageID{10, 20, 11, 21}, []int{2},
			[]Segment{{Start: 0, Phase: 0, Gap: 1}, {Start: 2, Phase: 1, Gap: 3}},
			[]TenantRange{{Name: "A", Lo: 10, Hi: 15}, {Name: "B", Lo: 20, Hi: 25}},
		)
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()-3])
	}
	for _, c := range ruleBreakingStreams() {
		f.Add(c.raw)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		tr, err := Read(bytes.NewReader(raw))
		if err != nil {
			return // malformed input rejected: fine
		}
		// Accepted input must round-trip bit-exact semantics.
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		tr2, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if tr2.Name != tr.Name || tr2.Len() != tr.Len() || len(tr2.Barriers) != len(tr.Barriers) {
			t.Fatalf("round trip mismatch: %q/%d/%d vs %q/%d/%d",
				tr.Name, tr.Len(), len(tr.Barriers), tr2.Name, tr2.Len(), len(tr2.Barriers))
		}
		for i := range tr.Refs {
			if tr.Refs[i] != tr2.Refs[i] {
				t.Fatalf("ref %d mismatch", i)
			}
		}
		for i := range tr.Barriers {
			if tr.Barriers[i] != tr2.Barriers[i] {
				t.Fatalf("barrier %d mismatch", i)
			}
		}
		if len(tr2.Segments) != len(tr.Segments) || len(tr2.Tenants) != len(tr.Tenants) {
			t.Fatalf("annotation round trip mismatch: %d/%d vs %d/%d segments/tenants",
				len(tr.Segments), len(tr.Tenants), len(tr2.Segments), len(tr2.Tenants))
		}
		for i := range tr.Segments {
			if tr2.Segments[i] != tr.Segments[i] {
				t.Fatalf("segment %d mismatch", i)
			}
		}
		for i := range tr.Tenants {
			if tr2.Tenants[i] != tr.Tenants[i] {
				t.Fatalf("tenant %d mismatch", i)
			}
		}
	})
}
