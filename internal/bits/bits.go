// Package bits provides the small bit-level containers the protocol state is
// built from: fixed word masks (per-line SR/SM/valid tracking), node sets
// (directory sharers lists, processor Sharing/Writing vectors), and a
// growable, shiftable bit vector (the directory Skip Vector).
package bits

import (
	"fmt"
	"math/bits"
	"strings"
)

// WordMask tracks up to 64 per-word flags within a cache line.
type WordMask uint64

// Set returns m with word i set.
func (m WordMask) Set(i int) WordMask { return m | 1<<uint(i) }

// Has reports whether word i is set.
func (m WordMask) Has(i int) bool { return m&(1<<uint(i)) != 0 }

// Any reports whether any word is set.
func (m WordMask) Any() bool { return m != 0 }

// Overlaps reports whether the two masks share a set word.
func (m WordMask) Overlaps(o WordMask) bool { return m&o != 0 }

// Count returns the number of set words.
func (m WordMask) Count() int { return bits.OnesCount64(uint64(m)) }

// All returns a mask with the n low words set.
func All(n int) WordMask {
	if n >= 64 {
		return ^WordMask(0)
	}
	return WordMask(1)<<uint(n) - 1
}

// NodeSet is a set of node IDs, used for sharer lists and the per-processor
// Sharing and Writing vectors. Nodes 0–63 live in an inline word, so a set
// on a machine of up to 64 nodes never touches the heap; only a set that
// gains a node above 63 allocates, for the words that hold nodes 64 and up.
// The zero value is an empty set.
type NodeSet struct {
	lo uint64   // nodes 0–63
	hi []uint64 // hi[k] holds nodes 64(k+1) to 64(k+1)+63; nil until needed
}

// Set adds node i.
func (s *NodeSet) Set(i int) {
	if i < 64 {
		s.lo |= 1 << uint(i)
		return
	}
	idx := i>>6 - 1
	for len(s.hi) <= idx {
		s.hi = append(s.hi, 0)
	}
	s.hi[idx] |= 1 << uint(i&63)
}

// Clear removes node i.
func (s *NodeSet) Clear(i int) {
	if i < 64 {
		s.lo &^= 1 << uint(i)
		return
	}
	if idx := i>>6 - 1; idx < len(s.hi) {
		s.hi[idx] &^= 1 << uint(i&63)
	}
}

// Has reports whether node i is a member.
func (s *NodeSet) Has(i int) bool {
	if i < 64 {
		return s.lo&(1<<uint(i)) != 0
	}
	idx := i>>6 - 1
	return idx < len(s.hi) && s.hi[idx]&(1<<uint(i&63)) != 0
}

// Reset empties the set, retaining storage.
func (s *NodeSet) Reset() {
	s.lo = 0
	clear(s.hi)
}

// Count returns the number of members.
func (s *NodeSet) Count() int {
	n := bits.OnesCount64(s.lo)
	for _, w := range s.hi {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no members.
func (s *NodeSet) Empty() bool {
	if s.lo != 0 {
		return false
	}
	for _, w := range s.hi {
		if w != 0 {
			return false
		}
	}
	return true
}

// Max returns the largest member, or -1 for an empty set.
func (s *NodeSet) Max() int {
	for k := len(s.hi) - 1; k >= 0; k-- {
		if s.hi[k] != 0 {
			return (k+1)<<6 + 63 - bits.LeadingZeros64(s.hi[k])
		}
	}
	return 63 - bits.LeadingZeros64(s.lo)
}

// ForEach calls fn for every member in ascending order.
func (s *NodeSet) ForEach(fn func(i int)) {
	forEachBit(0, s.lo, fn)
	for k, w := range s.hi {
		forEachBit((k+1)<<6, w, fn)
	}
}

// forEachBit calls fn(base+b) for every set bit b of w, ascending.
func forEachBit(base int, w uint64, fn func(i int)) {
	for w != 0 {
		fn(base + bits.TrailingZeros64(w))
		w &= w - 1
	}
}

// Members returns the members in ascending order.
func (s *NodeSet) Members() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// Clone returns an independent copy.
func (s *NodeSet) Clone() NodeSet {
	return NodeSet{lo: s.lo, hi: append([]uint64(nil), s.hi...)}
}

// String renders the set like {0 3 17}.
func (s *NodeSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}

// BitVec is a growable bit vector supporting left shifts, used for the
// directory Skip Vector: bit i corresponds to TID (NSTID + i).
type BitVec struct {
	w []uint64
}

// Set sets bit i, growing as needed.
func (v *BitVec) Set(i int) {
	idx := i >> 6
	for len(v.w) <= idx {
		v.w = append(v.w, 0)
	}
	v.w[idx] |= 1 << uint(i&63)
}

// Has reports whether bit i is set.
func (v *BitVec) Has(i int) bool {
	idx := i >> 6
	return idx < len(v.w) && v.w[idx]&(1<<uint(i&63)) != 0
}

// ShiftOutLow discards the n low bits, moving bit n to position 0.
func (v *BitVec) ShiftOutLow(n int) {
	if n <= 0 {
		return
	}
	whole := n >> 6
	if whole >= len(v.w) {
		v.w = v.w[:0]
		return
	}
	v.w = append(v.w[:0], v.w[whole:]...)
	rem := uint(n & 63)
	if rem == 0 {
		return
	}
	for i := 0; i < len(v.w); i++ {
		v.w[i] >>= rem
		if i+1 < len(v.w) {
			v.w[i] |= v.w[i+1] << (64 - rem)
		}
	}
}

// LeadingOnes returns the count of consecutive set bits starting at bit 0.
func (v *BitVec) LeadingOnes() int {
	n := 0
	for _, w := range v.w {
		t := bits.TrailingZeros64(^w)
		n += t
		if t != 64 {
			break
		}
	}
	return n
}

// MaxSet returns the index of the highest set bit, or -1 if none is set.
func (v *BitVec) MaxSet() int {
	for wi := len(v.w) - 1; wi >= 0; wi-- {
		if v.w[wi] != 0 {
			return wi<<6 + 63 - bits.LeadingZeros64(v.w[wi])
		}
	}
	return -1
}

// PopCount returns the number of set bits.
func (v *BitVec) PopCount() int {
	n := 0
	for _, w := range v.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// Reset clears all bits, retaining storage.
func (v *BitVec) Reset() {
	for i := range v.w {
		v.w[i] = 0
	}
}
