// Package stats provides the measurement primitives the evaluation is built
// from: the five-way execution-time breakdown used by Figures 6-8, and
// value histograms with percentiles for the Table 3 characterization
// (transaction sizes, set sizes, directories per commit, occupancy).
package stats

import (
	"fmt"
	"sort"
)

// Component is one slice of the execution-time breakdown (Figures 6-8).
type Component int

// Breakdown components, in the paper's stacking order.
const (
	Useful    Component = iota // cycles executing instructions that commit
	CacheMiss                  // stall cycles waiting on the memory system
	Idle                       // cycles waiting at barriers
	Commit                     // cycles in the validation + commit phases
	Violation                  // cycles wasted on work that was rolled back
	NumComponents
)

// String returns the figure-legend name of the component.
func (c Component) String() string {
	switch c {
	case Useful:
		return "Useful"
	case CacheMiss:
		return "CacheMiss"
	case Idle:
		return "Idle"
	case Commit:
		return "Commit"
	case Violation:
		return "Violations"
	}
	return fmt.Sprintf("Component(%d)", int(c))
}

// Breakdown accumulates cycles per component for one processor.
type Breakdown [NumComponents]uint64

// Add charges cycles to component c.
func (b *Breakdown) Add(c Component, cycles uint64) { b[c] += cycles }

// Total returns the cycles across all components.
func (b *Breakdown) Total() uint64 {
	var t uint64
	for _, v := range b {
		t += v
	}
	return t
}

// Plus returns the elementwise sum of two breakdowns.
func (b Breakdown) Plus(o Breakdown) Breakdown {
	for i := range b {
		b[i] += o[i]
	}
	return b
}

// Fraction returns component c as a fraction of the total (0 if empty).
func (b Breakdown) Fraction(c Component) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return float64(b[c]) / float64(t)
}

// Histogram collects integer samples and answers percentile queries.
// The zero value is ready to use.
type Histogram struct {
	vals   []uint64
	sorted bool
}

// Add records one sample.
func (h *Histogram) Add(v uint64) {
	h.vals = append(h.vals, v)
	h.sorted = false
}

func (h *Histogram) ensureSorted() {
	if !h.sorted {
		sort.Slice(h.vals, func(i, j int) bool { return h.vals[i] < h.vals[j] })
		h.sorted = true
	}
}

// Percentile returns the p-th percentile (0 < p <= 100) using the
// nearest-rank method, matching the paper's "90th %" columns.
func (h *Histogram) Percentile(p float64) uint64 {
	if len(h.vals) == 0 {
		return 0
	}
	h.ensureSorted()
	rank := int(p/100*float64(len(h.vals))+0.9999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(h.vals) {
		rank = len(h.vals) - 1
	}
	return h.vals[rank]
}

// Max returns the largest sample (0 for an empty histogram).
func (h *Histogram) Max() uint64 {
	if len(h.vals) == 0 {
		return 0
	}
	h.ensureSorted()
	return h.vals[len(h.vals)-1]
}

// Values returns the raw samples (order unspecified). The slice is live;
// callers must not modify it.
func (h *Histogram) Values() []uint64 { return h.vals }
