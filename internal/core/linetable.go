package core

import (
	stdbits "math/bits"

	"scalabletcc/internal/mem"
)

// lineTable gives each line base homed at one directory a dense id, in
// first-touch order, without hashing (DESIGN §36). A first-touch home node
// holds few pages, so the table keeps them sorted by base: resolving a line
// is a binary search over those pages, then an index into the page's slot
// array, one int32 per line of the page. Slot arrays are carved from fixed
// chunks and never move; only the page list and the id-to-base list grow.
type lineTable struct {
	lineShift uint     // log2(LineSize)
	pageMask  mem.Addr // PageSize - 1
	perPage   int      // lines per page

	pages []linePage // sorted by base
	bases []mem.Addr // id -> line base, in first-touch order
	slab  []int32    // unused slot storage, carved perPage slots per page
}

// linePage is one page homed here and the ids of its touched lines.
type linePage struct {
	base  mem.Addr
	slots []int32 // id+1 of each line of the page; 0 until the line's first touch
}

// slabPages is how many pages' slot arrays one slab allocation holds.
const slabPages = 16

func newLineTable(g mem.Geometry) lineTable {
	return lineTable{
		lineShift: uint(stdbits.TrailingZeros(uint(g.LineSize))),
		pageMask:  mem.Addr(g.PageSize - 1),
		perPage:   g.PageSize / g.LineSize,
	}
}

// len returns the number of lines with an id.
func (t *lineTable) len() int { return len(t.bases) }

// page returns the position of page base p in t.pages, or where it would be
// inserted, and whether it is there.
func (t *lineTable) page(p mem.Addr) (int, bool) {
	lo, hi := 0, len(t.pages)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.pages[m].base < p {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(t.pages) && t.pages[lo].base == p
}

// lookup returns the id of line base and whether the line has one.
func (t *lineTable) lookup(base mem.Addr) (int32, bool) {
	i, ok := t.page(base &^ t.pageMask)
	if !ok {
		return 0, false
	}
	s := t.pages[i].slots[(base&t.pageMask)>>t.lineShift]
	return s - 1, s != 0
}

// id returns the id of line base, giving the line the next id on its first
// touch; fresh reports that first touch. base must be line-aligned.
func (t *lineTable) id(base mem.Addr) (id int32, fresh bool) {
	p := base &^ t.pageMask
	i, ok := t.page(p)
	if !ok {
		if len(t.slab) == 0 {
			t.slab = make([]int32, slabPages*t.perPage)
		}
		pg := linePage{base: p, slots: t.slab[:t.perPage:t.perPage]}
		t.slab = t.slab[t.perPage:]
		t.pages = append(t.pages, linePage{})
		copy(t.pages[i+1:], t.pages[i:])
		t.pages[i] = pg
	}
	s := &t.pages[i].slots[(base&t.pageMask)>>t.lineShift]
	if *s != 0 {
		return *s - 1, false
	}
	id = int32(len(t.bases))
	t.bases = append(t.bases, base)
	*s = id + 1
	return id, true
}
