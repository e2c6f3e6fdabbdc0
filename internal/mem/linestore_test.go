package mem

import (
	"reflect"
	"testing"
	"testing/quick"
)

// lineOp decodes one random operation on a store's lines: which line (drawn
// from a few pages, first and last lines of a page favoured so page
// boundaries are crossed often) and whether to touch it or only look it up.
func lineOp(g Geometry, op uint32) (base Addr, touch bool) {
	pages := []Addr{0, 1, 2, 7, 1 << 20, 1<<32 - 1, 1 << 40}
	perPage := uint32(g.PageSize / g.LineSize)
	page := pages[op%uint32(len(pages))]
	var line uint32
	switch (op >> 4) & 3 {
	case 0:
		line = 0
	case 1:
		line = perPage - 1
	default:
		line = (op >> 8) % perPage
	}
	return page*Addr(g.PageSize) + Addr(line)*Addr(g.LineSize), op&(1<<6) != 0
}

// The store's id resolution agrees with a map from base to first-touch
// position, for 32- and 64-byte lines.
func TestLineStoreMatchesMap(t *testing.T) {
	for _, ls := range []int{32, 64} {
		g := Geometry{LineSize: ls, WordSize: 4, PageSize: 4096}
		f := func(ops []uint32) bool {
			s := NewLineStore(g)
			model := map[Addr]int32{}
			var order []Addr
			for _, op := range ops {
				base, touch := lineOp(g, op)
				want, known := model[base]
				if touch {
					id, fresh := s.ID(base)
					if fresh == known {
						return false
					}
					if !known {
						want = int32(len(order))
						model[base] = want
						order = append(order, base)
					}
					if id != want {
						return false
					}
				} else if id, ok := s.Lookup(base); ok != known || (ok && id != want) {
					return false
				}
			}
			return reflect.DeepEqual(s.Bases(), order) && s.Len() == len(model)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("LineSize %d: %v", ls, err)
		}
	}
}

// Each line owns its own words, all zero until written, and a slice Words
// returned stays live storage while more than two chunks of lines are
// created after it: line 0, the last line of the first word chunk, the
// first line of the next, and a line on another page.
func TestLineStoreWordsAcrossChunks(t *testing.T) {
	g := DefaultGeometry()
	s := NewLineStore(g)
	line := func(i int) Addr { return 0x10000 + Addr(i*g.LineSize) }
	for i := 0; i <= LineChunk; i++ {
		s.ID(line(i))
	}
	probes := []Addr{line(0), line(LineChunk - 1), line(LineChunk), 1 << 32}
	wantID := []int32{0, LineChunk - 1, LineChunk, LineChunk + 1}
	held := make([][]Version, len(probes))
	for k, base := range probes {
		held[k] = s.Line(base)
		if len(held[k]) != g.WordsPerLine() {
			t.Fatalf("line %#x has %d words, want %d", base, len(held[k]), g.WordsPerLine())
		}
		for _, v := range held[k] {
			if v != 0 {
				t.Fatalf("fresh line %#x not zero: %v", base, held[k])
			}
		}
		SetWords(held[k], 1<<uint(k)|1<<7, Version(k+1))
	}
	more := 2*LineChunk + 10
	for i := 0; i < more; i++ {
		s.ID(line(LineChunk + 1 + i))
	}
	if s.Len() != LineChunk+2+more {
		t.Fatalf("%d lines, want %d", s.Len(), LineChunk+2+more)
	}
	for k, base := range probes {
		id, ok := s.Lookup(base)
		if !ok || id != wantID[k] {
			t.Fatalf("line %#x: id %d,%v, want %d", base, id, ok, wantID[k])
		}
		want := make([]Version, g.WordsPerLine())
		want[k], want[7] = Version(k+1), Version(k+1)
		if got := s.Words(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("line %#x reads back %v, want %v", base, got, want)
		}
		held[k][3] = 77
		if got := s.Words(id)[3]; got != 77 {
			t.Fatalf("write through the held slice of line %#x reads back %d, want 77", base, got)
		}
	}
	for _, id := range []int32{1, LineChunk - 2, LineChunk + 2} {
		for w, v := range s.Words(id) {
			if v != 0 {
				t.Fatalf("line id %d word %d = %d, want 0: a neighbour's write leaked", id, w, v)
			}
		}
	}
}

func TestSetWords(t *testing.T) {
	got := make([]Version, 8)
	SetWords(got, 0b10100101, 9)
	want := []Version{9, 0, 9, 0, 0, 9, 0, 9}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SetWords = %v, want %v", got, want)
	}
}
