package stats

// Restore replaces the histogram's samples with vals, preserving their
// order (checkpoint restore replays the original insertion sequence).
func (h *Histogram) Restore(vals []uint64) {
	h.vals = append(h.vals[:0], vals...)
	h.sorted = false
}
