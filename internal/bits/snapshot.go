package bits

// Words returns a copy of the vector's backing words for serialization.
// Trailing zero words are trimmed so equal vectors snapshot identically.
func (v *BitVec) Words() []uint64 {
	n := len(v.w)
	for n > 0 && v.w[n-1] == 0 {
		n--
	}
	return append([]uint64(nil), v.w[:n]...)
}

// LoadWords replaces the vector's contents with the given words.
func (v *BitVec) LoadWords(w []uint64) {
	v.w = append(v.w[:0], w...)
}

// Words returns the set as little-endian 64-node words for serialization,
// with trailing zero words trimmed (nil for an empty set): word k holds
// nodes 64k to 64k+63, whatever storage holds them.
func (s *NodeSet) Words() []uint64 {
	n := len(s.hi)
	for n > 0 && s.hi[n-1] == 0 {
		n--
	}
	if n == 0 && s.lo == 0 {
		return nil
	}
	return append(append(make([]uint64, 0, n+1), s.lo), s.hi[:n]...)
}

// LoadWords replaces the set's contents with the given words, in the form
// Words returns.
func (s *NodeSet) LoadWords(w []uint64) {
	s.lo = 0
	s.hi = s.hi[:0]
	if len(w) > 0 {
		s.lo = w[0]
		s.hi = append(s.hi, w[1:]...)
	}
}
