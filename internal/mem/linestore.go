package mem

import stdbits "math/bits"

// LineStore is the lines homed at one node: it gives each line base a
// dense id, in first-touch order, without hashing, and keeps the lines'
// memory words in fixed chunks indexed by that id (DESIGN §36, §37). Every
// machine's home is built on it: each TCC directory and each home of a mesh
// rival has one, and the bus machine has one for its shared memory.
//
// A first-touch home holds few pages, so the store keeps them sorted by
// base: resolving a line is a binary search over those pages, then an
// index into the page's slot array, one int32 per line of the page. Slot
// arrays and word chunks are carved from fixed chunks and never move, so a
// slice Words returned stays live storage for the store's lifetime; only
// the page list and the id-to-base list grow.
type LineStore struct {
	lineShift uint // log2(LineSize)
	pageMask  Addr // PageSize - 1
	perPage   int  // lines per page
	wpl       int  // words per line

	pages []linePage  // sorted by base
	bases []Addr      // id -> line base, in first-touch order
	slab  []int32     // unused slot storage, carved perPage slots per page
	words [][]Version // words[id>>lineChunkShift] holds the chunk's lines' words
}

// linePage is one page homed here and the ids of its touched lines.
type linePage struct {
	base  Addr
	slots []int32 // id+1 of each line of the page; 0 until the line's first touch
}

// slabPages is how many pages' slot arrays one slab allocation holds.
const slabPages = 16

// LineChunk is how many lines' words one word chunk holds, and the first
// capacity of the id-to-base list; a home's other per-line tables can start
// at it too.
const (
	lineChunkShift = 7
	LineChunk      = 1 << lineChunkShift
)

// NewLineStore returns an empty store for lines of geometry g.
func NewLineStore(g Geometry) LineStore {
	return LineStore{
		lineShift: uint(stdbits.TrailingZeros(uint(g.LineSize))),
		pageMask:  Addr(g.PageSize - 1),
		perPage:   g.PageSize / g.LineSize,
		wpl:       g.WordsPerLine(),
	}
}

// Len returns the number of lines with an id.
func (s *LineStore) Len() int { return len(s.bases) }

// Bases maps each id to its line base, in first-touch order. The slice is
// live; callers must not modify it.
func (s *LineStore) Bases() []Addr { return s.bases }

// page returns the position of page base p in s.pages, or where it would be
// inserted, and whether it is there.
func (s *LineStore) page(p Addr) (int, bool) {
	lo, hi := 0, len(s.pages)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.pages[m].base < p {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(s.pages) && s.pages[lo].base == p
}

// Lookup returns the id of line base and whether the line has one.
func (s *LineStore) Lookup(base Addr) (int32, bool) {
	i, ok := s.page(base &^ s.pageMask)
	if !ok {
		return 0, false
	}
	v := s.pages[i].slots[(base&s.pageMask)>>s.lineShift]
	return v - 1, v != 0
}

// ID returns the id of line base, giving the line the next id and all-zero
// words on its first touch; fresh reports that first touch. base must be
// line-aligned.
func (s *LineStore) ID(base Addr) (id int32, fresh bool) {
	p := base &^ s.pageMask
	i, ok := s.page(p)
	if !ok {
		if len(s.slab) == 0 {
			s.slab = make([]int32, slabPages*s.perPage)
			if s.pages == nil {
				s.pages = make([]linePage, 0, slabPages)
			}
		}
		pg := linePage{base: p, slots: s.slab[:s.perPage:s.perPage]}
		s.slab = s.slab[s.perPage:]
		s.pages = append(s.pages, linePage{})
		copy(s.pages[i+1:], s.pages[i:])
		s.pages[i] = pg
	}
	v := &s.pages[i].slots[(base&s.pageMask)>>s.lineShift]
	if *v != 0 {
		return *v - 1, false
	}
	id = int32(len(s.bases))
	if id&(LineChunk-1) == 0 {
		s.words = append(s.words, make([]Version, LineChunk*s.wpl))
		if id == 0 {
			s.bases = make([]Addr, 0, LineChunk)
		}
	}
	s.bases = append(s.bases, base)
	*v = id + 1
	return id, true
}

// Words returns line id's memory words: live storage, all zero until a
// write reaches them.
func (s *LineStore) Words(id int32) []Version {
	o := int(id&(LineChunk-1)) * s.wpl
	return s.words[id>>lineChunkShift][o : o+s.wpl : o+s.wpl]
}

// Line returns the words of line base, giving the line an id on its first
// touch.
func (s *LineStore) Line(base Addr) []Version {
	id, _ := s.ID(base)
	return s.Words(id)
}

// SetWords stores version v into the masked words of line: a committed
// write-back whose data words all carry the committer's version.
func SetWords(line []Version, mask uint64, v Version) {
	for i := range line {
		if mask&(1<<uint(i)) != 0 {
			line[i] = v
		}
	}
}

// MergeMonotonic stores each masked word of data into the memory line dst
// only if it is at least as new as what dst holds, and returns the number
// of words accepted. This is the word-granular form of the paper's
// TID-tagged write-back rule: data returning out of order over an unordered
// network must never roll memory back to an older committed version.
func MergeMonotonic(dst []Version, mask uint64, data []Version) int {
	n := 0
	for i := range dst {
		if mask&(1<<uint(i)) != 0 && data[i] >= dst[i] {
			if data[i] > dst[i] {
				n++
			}
			dst[i] = data[i]
		}
	}
	return n
}
