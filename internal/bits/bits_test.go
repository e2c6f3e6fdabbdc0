package bits

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestWordMaskBasics(t *testing.T) {
	var m WordMask
	if m.Any() {
		t.Fatal("zero mask reports Any")
	}
	m = m.Set(0).Set(5).Set(63)
	for _, w := range []int{0, 5, 63} {
		if !m.Has(w) {
			t.Fatalf("bit %d not set", w)
		}
	}
	if m.Has(1) || m.Has(62) {
		t.Fatal("unexpected bit set")
	}
	if m.Count() != 3 {
		t.Fatalf("Count = %d, want 3", m.Count())
	}
	if !m.Overlaps(WordMask(1) << 5) {
		t.Fatal("Overlaps missed bit 5")
	}
	if m.Overlaps(WordMask(1) << 6) {
		t.Fatal("Overlaps false positive")
	}
}

func TestAll(t *testing.T) {
	cases := []struct {
		n    int
		want WordMask
	}{
		{0, 0}, {1, 1}, {8, 0xff}, {64, ^WordMask(0)}, {100, ^WordMask(0)},
	}
	for _, c := range cases {
		if got := All(c.n); got != c.want {
			t.Fatalf("All(%d) = %#x, want %#x", c.n, got, c.want)
		}
	}
}

func TestNodeSetBasics(t *testing.T) {
	var s NodeSet
	if !s.Empty() {
		t.Fatal("zero NodeSet not empty")
	}
	s.Set(0)
	s.Set(63)
	s.Set(64)
	s.Set(200)
	if s.Count() != 4 {
		t.Fatalf("Count = %d, want 4", s.Count())
	}
	want := []int{0, 63, 64, 200}
	got := s.Members()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Members = %v, want %v", got, want)
		}
	}
	s.Clear(63)
	if s.Has(63) {
		t.Fatal("Clear failed")
	}
	if s.String() != "{0 64 200}" {
		t.Fatalf("String = %q", s.String())
	}
	c := s.Clone()
	c.Set(1)
	if s.Has(1) {
		t.Fatal("Clone aliases parent")
	}
	s.Reset()
	if !s.Empty() {
		t.Fatal("Reset left members")
	}
}

func TestNodeSetClearBeyondStorage(t *testing.T) {
	var s NodeSet
	s.Clear(500) // must not panic or grow
	if !s.Empty() {
		t.Fatal("Clear on empty set created members")
	}
}

// Property: a NodeSet behaves like a map[int]bool.
func TestNodeSetModelProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		var s NodeSet
		model := map[int]bool{}
		for _, op := range ops {
			n := int(op % 300)
			if op%2 == 0 {
				s.Set(n)
				model[n] = true
			} else {
				s.Clear(n)
				delete(model, n)
			}
		}
		if s.Count() != len(model) {
			return false
		}
		for n := range model {
			if !s.Has(n) {
				return false
			}
		}
		ok := true
		s.ForEach(func(n int) {
			if !model[n] {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBitVecShift(t *testing.T) {
	var v BitVec
	v.Set(0)
	v.Set(1)
	v.Set(2)
	v.Set(5)
	if v.LeadingOnes() != 3 {
		t.Fatalf("LeadingOnes = %d, want 3", v.LeadingOnes())
	}
	v.ShiftOutLow(3)
	if v.Has(0) || v.Has(1) {
		t.Fatal("shift left low bits set")
	}
	if !v.Has(2) { // old bit 5 moved to 2
		t.Fatal("bit 5 did not move to 2")
	}
	if v.PopCount() != 1 {
		t.Fatalf("PopCount = %d, want 1", v.PopCount())
	}
}

func TestBitVecShiftAcrossWords(t *testing.T) {
	var v BitVec
	v.Set(70)
	v.Set(130)
	v.ShiftOutLow(64)
	if !v.Has(6) || !v.Has(66) {
		t.Fatal("64-bit shift misplaced bits")
	}
	v.ShiftOutLow(7)
	if v.Has(6) {
		t.Fatal("bit survived shift")
	}
	if !v.Has(59) {
		t.Fatal("bit 66 did not move to 59")
	}
}

func TestBitVecShiftAll(t *testing.T) {
	var v BitVec
	v.Set(3)
	v.ShiftOutLow(1000)
	if v.PopCount() != 0 {
		t.Fatal("shift beyond length left bits")
	}
	v.ShiftOutLow(5) // empty shift must not panic
}

// Property: ShiftOutLow(n) relocates every bit i >= n to i-n and drops the
// rest — the Skip-Vector correctness condition of Figure 5.
func TestBitVecShiftProperty(t *testing.T) {
	f := func(bitsIn []uint16, shift uint16) bool {
		n := int(shift % 200)
		var v BitVec
		model := map[int]bool{}
		for _, b := range bitsIn {
			i := int(b % 500)
			v.Set(i)
			model[i] = true
		}
		v.ShiftOutLow(n)
		for i := 0; i < 500; i++ {
			want := model[i+n]
			if v.Has(i) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBitVecLeadingOnesLong(t *testing.T) {
	var v BitVec
	for i := 0; i < 130; i++ {
		v.Set(i)
	}
	if v.LeadingOnes() != 130 {
		t.Fatalf("LeadingOnes = %d, want 130", v.LeadingOnes())
	}
	v.Reset()
	if v.PopCount() != 0 || v.LeadingOnes() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestNodeSetMax(t *testing.T) {
	var s NodeSet
	if s.Max() != -1 {
		t.Fatalf("empty set Max = %d, want -1", s.Max())
	}
	s.Set(3)
	s.Set(70)
	if s.Max() != 70 {
		t.Fatalf("Max = %d, want 70", s.Max())
	}
	s.Clear(70)
	if s.Max() != 3 {
		t.Fatalf("Max = %d, want 3", s.Max())
	}
}

func TestBitVecMaxSet(t *testing.T) {
	var v BitVec
	if v.MaxSet() != -1 {
		t.Fatalf("empty vec MaxSet = %d, want -1", v.MaxSet())
	}
	v.Set(0)
	v.Set(129)
	if v.MaxSet() != 129 {
		t.Fatalf("MaxSet = %d, want 129", v.MaxSet())
	}
	v.ShiftOutLow(1)
	if v.MaxSet() != 128 {
		t.Fatalf("after shift MaxSet = %d, want 128", v.MaxSet())
	}
	v.Reset()
	if v.MaxSet() != -1 {
		t.Fatalf("after Reset MaxSet = %d, want -1", v.MaxSet())
	}
}

// Words keeps the flat encoding — word k holds nodes 64k..64k+63, trailing
// zero words trimmed — whether a node sits in the inline word or the heap
// words, and LoadWords reads it back.
func TestNodeSetWordsAcrossInlineWord(t *testing.T) {
	members := []int{0, 63, 64, 1023}
	var s NodeSet
	want := make([]uint64, 1023/64+1)
	for _, n := range members {
		s.Set(n)
		want[n/64] |= 1 << uint(n%64)
	}
	if got := s.Words(); !slices.Equal(got, want) {
		t.Fatalf("Words = %#x, want %#x", got, want)
	}
	var r NodeSet
	r.LoadWords(want)
	if got := r.Members(); !slices.Equal(got, members) {
		t.Fatalf("LoadWords members = %v, want %v", got, members)
	}
	r.Clear(1023)
	if got := r.Words(); !slices.Equal(got, want[:2]) {
		t.Fatalf("Words after Clear(1023) = %#x, want trimmed %#x", got, want[:2])
	}
	var lowOnly NodeSet
	lowOnly.Set(5)
	if got := lowOnly.Words(); !slices.Equal(got, []uint64{1 << 5}) {
		t.Fatalf("inline-only Words = %#x", got)
	}
	var empty NodeSet
	if empty.Words() != nil {
		t.Fatal("empty set's Words is not nil")
	}

	c := s.Clone()
	c.Clear(1023)
	c.Clear(0)
	c.Set(500)
	if !slices.Equal(s.Members(), members) {
		t.Fatalf("Clone shares storage: parent now %v", s.Members())
	}
	s.Reset()
	if !s.Empty() || s.Count() != 0 || s.Max() != -1 || s.Words() != nil {
		t.Fatalf("Reset left %v", s.Members())
	}
	if got := c.Members(); !slices.Equal(got, []int{63, 64, 500}) {
		t.Fatalf("clone after parent Reset = %v", got)
	}
}
