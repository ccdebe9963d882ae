package policy

import "math/bits"

// bitset is a set of small non-negative integers (ring slots), one bit each.
type bitset []uint64

func (b bitset) set(i int32)   { b[i>>6] |= 1 << (i & 63) }
func (b bitset) clear(i int32) { b[i>>6] &^= 1 << (i & 63) }

// or adds every member of o, which must be as long as b.
func (b bitset) or(o bitset) {
	for w := range b {
		b[w] |= o[w]
	}
}

// reset empties the set.
func (b bitset) reset() {
	for w := range b {
		b[w] = 0
	}
}

// intersects reports whether b and o share a member.
func (b bitset) intersects(o bitset) bool {
	for w := range b {
		if b[w]&o[w] != 0 {
			return true
		}
	}
	return false
}

// first returns the lowest member; the caller knows one exists.
func (b bitset) first() int32 { return b.firstAnd(b) }

// firstAnd returns the lowest member of both b and o; the caller knows one
// exists.
func (b bitset) firstAnd(o bitset) int32 {
	for w := range b {
		if x := b[w] & o[w]; x != 0 {
			return int32(w<<6 + bits.TrailingZeros64(x))
		}
	}
	panic("policy: bitset.firstAnd on disjoint sets")
}
