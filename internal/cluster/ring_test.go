package cluster

import (
	"fmt"
	"testing"
)

func TestRingOwnerIsSequenceHead(t *testing.T) {
	r := newRing([]string{"a", "b", "c"}, 64)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("run-v2-%032x", i)
		seq := r.sequence(key)
		if len(seq) != 3 {
			t.Fatalf("sequence(%q) has %d entries, want 3 distinct", key, len(seq))
		}
		// The head owns key: the first point clockwise of the key's hash.
		h, owner := hashKey(key), r.points[0].name
		for _, p := range r.points {
			if p.hash >= h {
				owner = p.name
				break
			}
		}
		if seq[0] != owner {
			t.Fatalf("sequence head %q != owner %q", seq[0], owner)
		}
		seen := map[string]bool{}
		for _, n := range seq {
			if seen[n] {
				t.Fatalf("sequence(%q) repeats %q", key, n)
			}
			seen[n] = true
		}
	}
}

func TestRingDistribution(t *testing.T) {
	backends := []string{"http://b0", "http://b1", "http://b2"}
	r := newRing(backends, 64)
	counts := map[string]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		counts[r.sequence(fmt.Sprintf("run-v2-%032x", i*7919))[0]]++
	}
	for _, b := range backends {
		share := float64(counts[b]) / keys
		if share < 0.15 || share > 0.55 {
			t.Errorf("backend %s owns %.1f%% of keys; virtual nodes should keep the spread moderate (counts %v)",
				b, share*100, counts)
		}
	}
}

// TestRingStabilityUnderLoss pins the consistent-hashing property the
// re-dispatch design leans on: when one backend dies, only its own keys
// move — every key owned by a surviving backend keeps its owner, because
// the ring walk just skips the dead entry.
func TestRingStabilityUnderLoss(t *testing.T) {
	r := newRing([]string{"a", "b", "c"}, 64)
	dead := "b"
	moved, kept := 0, 0
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("run-v2-%032x", i)
		seq := r.sequence(key)
		// The effective owner with b dead is the first live entry.
		var effective string
		for _, n := range seq {
			if n != dead {
				effective = n
				break
			}
		}
		if seq[0] == dead {
			moved++
			if effective == dead || effective == "" {
				t.Fatalf("key %q has no live owner", key)
			}
		} else {
			kept++
			if effective != seq[0] {
				t.Fatalf("key %q owned by live %q moved to %q when %q died", key, seq[0], effective, dead)
			}
		}
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate split moved=%d kept=%d", moved, kept)
	}
}

func TestRingDeterministicAcrossConstruction(t *testing.T) {
	a := newRing([]string{"x", "y", "z"}, 32)
	b := newRing([]string{"x", "y", "z"}, 32)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("suite-%032x", i)
		if a.sequence(key)[0] != b.sequence(key)[0] {
			t.Fatalf("owner(%q) differs between identically-configured rings", key)
		}
	}
}
