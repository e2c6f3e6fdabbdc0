package mem

import (
	"testing"
	"testing/quick"
)

func TestGeometryValidate(t *testing.T) {
	if err := DefaultGeometry().Validate(); err != nil {
		t.Fatalf("default geometry invalid: %v", err)
	}
	bad := []Geometry{
		{LineSize: 0, WordSize: 4, PageSize: 4096},
		{LineSize: 33, WordSize: 4, PageSize: 4096},
		{LineSize: 32, WordSize: 3, PageSize: 4096},
		{LineSize: 32, WordSize: 4, PageSize: 16},
		{LineSize: 32, WordSize: 64, PageSize: 4096},
		{LineSize: 1024, WordSize: 4, PageSize: 4096}, // 256 words > 64-bit mask
	}
	for i, g := range bad {
		if g.Validate() == nil {
			t.Errorf("case %d: bad geometry %+v validated", i, g)
		}
	}
}

func TestGeometryArithmetic(t *testing.T) {
	g := DefaultGeometry()
	a := Addr(0x1234)
	if g.Line(a) != 0x1220 {
		t.Fatalf("Line = %#x", g.Line(a))
	}
	if g.WordIndex(a) != 5 {
		t.Fatalf("WordIndex = %d", g.WordIndex(a))
	}
	if g.WordAddr(0x1220, 5) != a {
		t.Fatal("WordAddr does not invert WordIndex")
	}
	if g.Page(a) != 0x1000 {
		t.Fatalf("Page = %#x", g.Page(a))
	}
	if g.WordsPerLine() != 8 {
		t.Fatalf("WordsPerLine = %d", g.WordsPerLine())
	}
}

// Property: word/line arithmetic round-trips for any address.
func TestGeometryRoundTripProperty(t *testing.T) {
	g := DefaultGeometry()
	f := func(raw uint64) bool {
		a := Addr(raw &^ 3) // word-aligned
		base := g.Line(a)
		w := g.WordIndex(a)
		return g.WordAddr(base, w) == a && w >= 0 && w < g.WordsPerLine()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMapFirstTouch(t *testing.T) {
	g := DefaultGeometry()
	m := NewMap(g, 4)
	a := Addr(0x10000)
	if h := m.Home(a, 2); h != 2 {
		t.Fatalf("first touch home = %d, want 2", h)
	}
	// Second touch by a different node must keep the original home.
	if h := m.Home(a+4, 3); h != 2 {
		t.Fatalf("second touch home = %d, want 2", h)
	}
	// A different page gets its own first-touch home.
	if h := m.Home(a+Addr(g.PageSize), 3); h != 3 {
		t.Fatalf("new page home = %d, want 3", h)
	}
	if _, ok := m.HomeIfMapped(a); !ok {
		t.Fatal("HomeIfMapped missed a mapped page")
	}
	if _, ok := m.HomeIfMapped(0x999999999); ok {
		t.Fatal("HomeIfMapped hit an unmapped page")
	}
}

func TestMapHomeModulo(t *testing.T) {
	m := NewMap(DefaultGeometry(), 4)
	if h := m.Home(0x5000, 7); h != 3 {
		t.Fatalf("home = %d, want toucher %% nodes = 3", h)
	}
}

func TestMergeMonotonic(t *testing.T) {
	got := []Version{5, 5, 5, 5, 5, 5, 5, 5}
	// Mixed older/newer incoming data: only newer words land.
	in := []Version{3, 9, 5, 7, 1, 6, 2, 8}
	n := MergeMonotonic(got, ^uint64(0), in)
	want := []Version{5, 9, 5, 7, 5, 6, 5, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("word %d = %d, want %d", i, got[i], want[i])
		}
	}
	if n != 4 {
		t.Fatalf("accepted %d words, want 4", n)
	}
	// Fully stale merge accepts nothing.
	if n := MergeMonotonic(got, ^uint64(0), []Version{0, 0, 0, 0, 0, 0, 0, 0}); n != 0 {
		t.Fatalf("stale merge accepted %d words", n)
	}
	// Mask restricts the merge.
	l := make([]Version, 8)
	MergeMonotonic(l, 0b1, []Version{7, 7, 7, 7, 7, 7, 7, 7})
	if l[0] != 7 || l[1] != 0 {
		t.Fatal("mask not honored")
	}
}

// Property: after any sequence of monotonic merges, each word equals the max
// version ever offered for it.
func TestMergeMonotonicMaxProperty(t *testing.T) {
	f := func(writes []uint32) bool {
		got := make([]Version, 8)
		max := make([]Version, 8)
		for _, raw := range writes {
			w := int(raw % 8)
			v := Version(raw >> 3 % 1000)
			data := make([]Version, 8)
			data[w] = v
			MergeMonotonic(got, 1<<uint(w), data)
			if v > max[w] {
				max[w] = v
			}
		}
		for i := range max {
			if got[i] != max[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
