package stats

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestBreakdown(t *testing.T) {
	var b Breakdown
	b.Add(Useful, 70)
	b.Add(CacheMiss, 20)
	b.Add(Commit, 10)
	if b.Total() != 100 {
		t.Fatalf("Total = %d", b.Total())
	}
	if f := b.Fraction(Useful); f != 0.7 {
		t.Fatalf("Fraction(Useful) = %v", f)
	}
	var z Breakdown
	if z.Fraction(Idle) != 0 {
		t.Fatal("empty breakdown fraction != 0")
	}
	sum := b.Plus(b)
	if sum.Total() != 200 || sum[Useful] != 140 {
		t.Fatalf("Plus wrong: %v", sum)
	}
	// Plus must not mutate the receiver (value semantics).
	if b.Total() != 100 {
		t.Fatal("Plus mutated operand")
	}
}

func TestComponentNames(t *testing.T) {
	want := []string{"Useful", "CacheMiss", "Idle", "Commit", "Violations"}
	for i, w := range want {
		if Component(i).String() != w {
			t.Errorf("Component(%d) = %q, want %q", i, Component(i).String(), w)
		}
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Percentile(90) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not all-zero")
	}
	for _, v := range []uint64{5, 1, 9, 3, 7} {
		h.Add(v)
	}
	if h.Max() != 9 {
		t.Fatalf("Max=%d", h.Max())
	}
	if p := h.Percentile(50); p != 5 {
		t.Fatalf("P50 = %d, want 5", p)
	}
	if p := h.Percentile(100); p != 9 {
		t.Fatalf("P100 = %d, want 9", p)
	}
}

func TestHistogramPercentileNearestRank(t *testing.T) {
	var h Histogram
	for i := uint64(1); i <= 100; i++ {
		h.Add(i)
	}
	if p := h.Percentile(90); p != 90 {
		t.Fatalf("P90 of 1..100 = %d, want 90", p)
	}
	if p := h.Percentile(1); p != 1 {
		t.Fatalf("P1 = %d, want 1", p)
	}
}

func TestHistogramAddAfterQuery(t *testing.T) {
	var h Histogram
	h.Add(10)
	_ = h.Percentile(50)
	h.Add(1) // must re-sort lazily
	if h.Percentile(1) != 1 {
		t.Fatal("Add after query broke sorting")
	}
}

// Property: nearest-rank percentile matches a direct model, and percentiles
// are monotone in p.
func TestHistogramPercentileProperty(t *testing.T) {
	f := func(vals []uint16, pRaw uint8) bool {
		if len(vals) == 0 {
			return true
		}
		p := float64(pRaw%100) + 1
		var h Histogram
		model := make([]uint64, len(vals))
		for i, v := range vals {
			h.Add(uint64(v))
			model[i] = uint64(v)
		}
		sort.Slice(model, func(i, j int) bool { return model[i] < model[j] })
		rank := int(p/100*float64(len(model))+0.9999999) - 1
		if rank < 0 {
			rank = 0
		}
		if rank >= len(model) {
			rank = len(model) - 1
		}
		if h.Percentile(p) != model[rank] {
			return false
		}
		return h.Percentile(50) <= h.Percentile(90) && h.Percentile(90) <= h.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
