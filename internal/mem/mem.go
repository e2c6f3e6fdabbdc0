// Package mem models the physical address space of the simulated machine:
// line/word arithmetic, the first-touch page-to-home-node NUMA mapping the
// paper uses, the per-home line store that holds a home's memory words, and
// the per-transaction read log.
//
// Memory words do not hold application data. They hold *versions*: the TID of
// the transaction that last committed a write to the word (0 for the initial
// value). Versions flow through caches, write-backs, and owner forwards
// exactly like data would, which lets the serializability checker
// (internal/verify) prove that every committed read observed the value the
// TID-serial order dictates.
package mem

import "fmt"

// Addr is a byte address in the simulated physical address space.
type Addr uint64

// Version identifies the committed transaction that last wrote a word.
// Zero means the initial memory value.
type Version uint64

// Geometry fixes the line/word/page arithmetic for a run.
type Geometry struct {
	LineSize int // bytes per cache line (power of two)
	WordSize int // bytes per word (power of two); the paper models 4
	PageSize int // bytes per page for first-touch homing (power of two)
}

// DefaultGeometry matches the paper's Table 2: 32-byte lines, 32-bit words,
// 4 KB pages.
func DefaultGeometry() Geometry {
	return Geometry{LineSize: 32, WordSize: 4, PageSize: 4096}
}

// Validate checks the geometry invariants.
func (g Geometry) Validate() error {
	switch {
	case g.LineSize <= 0 || g.LineSize&(g.LineSize-1) != 0:
		return fmt.Errorf("mem: LineSize %d is not a positive power of two", g.LineSize)
	case g.WordSize <= 0 || g.WordSize&(g.WordSize-1) != 0:
		return fmt.Errorf("mem: WordSize %d is not a positive power of two", g.WordSize)
	case g.PageSize < g.LineSize || g.PageSize&(g.PageSize-1) != 0:
		return fmt.Errorf("mem: PageSize %d must be a power of two >= LineSize", g.PageSize)
	case g.WordSize > g.LineSize:
		return fmt.Errorf("mem: WordSize %d exceeds LineSize %d", g.WordSize, g.LineSize)
	case g.WordsPerLine() > 64:
		return fmt.Errorf("mem: %d words per line exceeds the 64-bit word-mask limit", g.WordsPerLine())
	}
	return nil
}

// WordsPerLine returns the number of words in a cache line.
func (g Geometry) WordsPerLine() int { return g.LineSize / g.WordSize }

// Line returns the line-aligned base address of a.
func (g Geometry) Line(a Addr) Addr { return a &^ Addr(g.LineSize-1) }

// WordIndex returns the index of a's word within its line.
func (g Geometry) WordIndex(a Addr) int { return int(a&Addr(g.LineSize-1)) / g.WordSize }

// WordAddr returns the address of word i within line base.
func (g Geometry) WordAddr(base Addr, i int) Addr { return base + Addr(i*g.WordSize) }

// Page returns the page-aligned base address of a.
func (g Geometry) Page(a Addr) Addr { return a &^ Addr(g.PageSize-1) }

// Map assigns pages to home nodes by first touch, as in the paper's
// methodology ("a simple first-touch policy is used to map virtual pages to
// physical memory on the various nodes").
type Map struct {
	geom  Geometry
	nodes int
	home  AddrIndex // page base -> home node, stored as the index id
}

// NewMap returns a first-touch map over the given node count.
func NewMap(g Geometry, nodes int) *Map {
	if nodes <= 0 {
		panic("mem: node count must be positive")
	}
	return &Map{geom: g, nodes: nodes}
}

// Geometry returns the map's geometry.
func (m *Map) Geometry() Geometry { return m.geom }

// Nodes returns the node count.
func (m *Map) Nodes() int { return m.nodes }

// Home returns the home node of address a, assigning the page to toucher on
// first touch.
func (m *Map) Home(a Addr, toucher int) int {
	p := m.geom.Page(a)
	if h, ok := m.home.Get(p); ok {
		return int(h)
	}
	h := toucher % m.nodes
	m.home.Set(p, int32(h))
	return h
}

// HomeIfMapped returns the home of a and whether its page has been touched.
func (m *Map) HomeIfMapped(a Addr) (int, bool) {
	h, ok := m.home.Get(m.geom.Page(a))
	return int(h), ok
}
