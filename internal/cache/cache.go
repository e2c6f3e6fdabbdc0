// Package cache models the private cache hierarchy of a TCC processor
// (Figure 1b): an authoritative set-associative write-back cache holding
// line data plus the speculative tracking bits the protocol needs —
// per-word speculatively-read (SR) and speculatively-modified (SM) masks and
// a per-line dirty (D) bit — fronted by a small L1 tag filter that only
// affects timing.
//
// Lines with any speculative state are pinned: they must not be silently
// evicted, or the processor would miss a violation (lost SR bits) or lose
// uncommitted data (lost SM bits). When an allocation finds every way of a
// set pinned, the line spills into an unbounded per-set overflow area. This
// models the VTM/XTM-style virtualization the paper points to for the rare
// overflow case ("recent studies have shown that with large private L2
// caches ... it is unlikely that these overflows will occur"); spills are
// counted so experiments can report how rare they are.
//
// Storage layout (third-generation fast path, DESIGN §23; sized once,
// §35): a set's block of tag-mirror and way-table slots materializes on
// the set's first touch, carved from fixed 64-block chunks that never move
// or regrow, but line bodies (plus their permanent data buffers) are carved
// from 256-line chunks one way at a time, on each way's first fill —
// storage scales with filled lines, not touched sets, which matters
// because low-occupancy workloads fill only a way or two of most sets. The
// dense struct-of-arrays tag mirror keeps the per-access set scan reading
// one contiguous cache line of tags instead of striding through Line
// structs. Data buffers are slot-permanent, so a fill copies words in place
// instead of shuffling pooled buffers. Overflow lines are indexed by a
// generation-tagged open-addressing table (mem.AddrIndex) and their data
// comes from a watermark arena, making abort O(footprint) with a
// constant-time overflow wipe.
package cache

import (
	"fmt"
	stdbits "math/bits"
	"sort"

	"scalabletcc/internal/bits"
	"scalabletcc/internal/mem"
)

// Line is one cache line with TCC speculative state. The fields run widest
// first, so a Line packs into 88 bytes.
type Line struct {
	Base mem.Addr
	VW   bits.WordMask // per-word valid bits (partial invalidation support)
	OW   bits.WordMask // owned words: committed words memory does not have yet
	SR   bits.WordMask // words speculatively read by the current transaction
	SM   bits.WordMask // words speculatively modified by the current transaction
	Data []mem.Version // per-word versions (stand-in for data)
	lru  uint64

	// idx is the line's logical slot index, set*ways+way (-1 for overflow
	// lines): the deterministic ForEach order key. slot is the line's
	// physical position in the tag mirror (see Cache.setSlot; -1 for
	// overflow). Both survive resets. tracked marks membership in the
	// speculative-line list for the current transaction.
	idx  int32
	slot int32

	Valid   bool // line present
	Dirty   bool // holds committed data newer than memory (we are the owner)
	tracked bool
}

// Speculative reports whether the line carries any transaction-local state.
func (l *Line) Speculative() bool { return l.SR.Any() || l.SM.Any() }

// Victim describes an evicted line the processor must dispose of
// (write back if dirty, silently drop otherwise). Dirty victims carry a
// pooled snapshot of their data; callers hand it back via Recycle.
type Victim struct {
	Base  mem.Addr
	Dirty bool
	OW    bits.WordMask // owned words carried by the write-back
	Data  []mem.Version
}

// Stats counts cache events for the evaluation.
type Stats struct {
	Hits, Misses  uint64
	Evictions     uint64
	DirtyEvicts   uint64
	Spills        uint64 // allocations that overflowed to the victim area
	MaxOverflow   int    // peak number of lines in overflow areas
	Invalidations uint64 // lines dropped by remote invalidation
}

// specRef locates one tracked line: its deterministic order key (logical
// idx) plus its physical slot in the way table. It carries no pointers so
// the tracking list is noscan memory.
type specRef struct {
	idx  int32
	slot int32
}

// invalidTag marks an empty way in the tag mirror. A slot whose tag matches
// a probed base is confirmed against Valid before being returned, so an
// application line that happens to equal the marker still resolves correctly.
const invalidTag = ^mem.Addr(0)

// chunkLines is how many Line bodies each storage chunk holds; filling a
// cold way costs one chunk-carve, not one allocation.
const chunkLines = 256

// chunkBlocks is how many sets' blocks of tag-mirror and way-table slots
// each slot chunk holds. A chunk is allocated whole on its first block's
// claim and never moves or grows.
const chunkBlocks = 64

// slotChunk is chunkBlocks blocks of slots, block-major: block b's way w is
// entry b*ways+w of both tables. One chunk holds both tables' headers, so a
// set scan that hits loads one chunk record for its tags and its line.
type slotChunk struct {
	tags  []mem.Addr // dense tag mirror
	lines []*Line    // way table; nil until the way first fills
}

// Cache is the authoritative private cache (the paper's 512 KB L2).
//
// Set storage is lazy twice over: `setSlot[set]` is -1 until the set's
// first fill claims a block of `ways` tag-mirror and way-table slots, and
// each way's Line body (plus its permanent data buffer) is carved from the
// current chunk only when that way first fills. Only `setSlot` scales with
// the configured cache size; everything else scales with the filled
// footprint, which is what makes constructing a 512 KB cache per benchmark
// iteration nearly free.
//
// Blocks are handed out in claim order from fixed chunks of chunkBlocks
// blocks, so no table is ever copied to grow. A slot number packs its
// chunk above chunkShift and its offset in the chunk (block*ways+way)
// below it; the chunk's slot count is rounded up to a power of two only in
// the numbering, not in storage.
type Cache struct {
	geom      mem.Geometry
	sets      int
	ways      int
	lineShift uint // log2(LineSize), for the set-index computation

	setSlot    []int32     // set -> slot of its way 0, -1 if the set was never filled
	chunks     []slotChunk // tag mirror and way table
	chunkShift uint        // slot >> chunkShift is the slot's chunk
	blocks     int         // blocks claimed

	chunkFree []Line        // unused Line bodies in the current chunk
	chunkSlab []mem.Version // unused data words in the current chunk

	clock   uint64
	stats   Stats
	bufFree [][]mem.Version // victim-snapshot buffer pool; all WordsPerLine-sized
	invSnap Line            // Invalidate's reusable return value (transient contract)

	// spec lists the main-array lines that gained SR/SM state during the
	// current transaction, kept unique and sorted by logical idx (sorted
	// insertion in Track), so commit/rollback/ForEachSpeculative walk it
	// directly in deterministic array order with no per-commit sort. Entries
	// are pointer-free slot references — insertion shifts move plain integers,
	// with no GC write barriers — resolved through blkLines, whose slots never
	// move.
	spec []specRef

	// Overflow area: ovIdx resolves a base to its position in ovLines
	// (append order); ovIter is the ascending-Base view rebuilt lazily when
	// ovDirty. Line bodies are pooled (ovPool, plus ovRetired for lines
	// handed out by Invalidate this transaction) and their data is carved
	// from a watermark arena (ovSlab/ovW) — the transaction-boundary wipe is
	// an index reset plus a watermark reset, never a per-word clear.
	ovIdx     mem.AddrIndex
	ovLines   []*Line
	ovIter    []*Line
	ovDirty   bool
	ovPool    []*Line
	ovRetired []*Line
	ovSlab    []mem.Version
	ovW       int
}

// CheckShape reports an error unless sizeBytes of ways-way cache with
// geom's line size divide into a whole, power-of-two number of sets — the
// shape New and NewTagArray index by masking. geom must be valid.
func CheckShape(geom mem.Geometry, sizeBytes, ways int) error {
	nlines := sizeBytes / geom.LineSize
	if ways <= 0 || nlines <= 0 || sizeBytes%geom.LineSize != 0 || nlines%ways != 0 {
		return fmt.Errorf("cache: %d bytes do not divide into %d-way sets of %d-byte lines",
			sizeBytes, ways, geom.LineSize)
	}
	if sets := nlines / ways; sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d (%d bytes, %d ways) is not a power of two", sets, sizeBytes, ways)
	}
	return nil
}

// New builds a cache of sizeBytes with the given associativity. It panics
// on a shape CheckShape rejects.
func New(geom mem.Geometry, sizeBytes, ways int) *Cache {
	if err := CheckShape(geom, sizeBytes, ways); err != nil {
		panic(err.Error())
	}
	sets := sizeBytes / geom.LineSize / ways
	c := &Cache{
		geom:       geom,
		sets:       sets,
		ways:       ways,
		lineShift:  uint(stdbits.TrailingZeros(uint(geom.LineSize))),
		setSlot:    make([]int32, sets),
		chunkShift: uint(stdbits.Len(uint(chunkBlocks*ways - 1))),
	}
	for i := range c.setSlot {
		c.setSlot[i] = -1
	}
	return c
}

// Geometry returns the cache's address geometry.
func (c *Cache) Geometry() mem.Geometry { return c.geom }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) setIndex(base mem.Addr) int {
	return int(uint64(base)>>c.lineShift) & (c.sets - 1)
}

// allocBlock gives set si the next block of tag-mirror and way-table slots,
// allocating a whole chunk when the last one is full; Line bodies stay
// unallocated until each way first fills.
func (c *Cache) allocBlock(si int) int32 {
	ch, b := c.blocks/chunkBlocks, c.blocks%chunkBlocks
	if b == 0 {
		tags := make([]mem.Addr, chunkBlocks*c.ways)
		for i := range tags {
			tags[i] = invalidTag
		}
		c.chunks = append(c.chunks, slotChunk{tags: tags, lines: make([]*Line, chunkBlocks*c.ways)})
	}
	c.blocks++
	s := int32(ch<<c.chunkShift + b*c.ways)
	c.setSlot[si] = s
	return s
}

// block returns set si's way-0 slot, allocating its block on first touch.
func (c *Cache) block(si int) int32 {
	s := c.setSlot[si]
	if s < 0 {
		s = c.allocBlock(si)
	}
	return s
}

// chunkAt returns slot s's chunk and its offset in that chunk.
func (c *Cache) chunkAt(s int32) (*slotChunk, int) {
	return &c.chunks[s>>c.chunkShift], int(s) & (1<<c.chunkShift - 1)
}

// setLines returns the way-table entries of the block at slot s.
func (c *Cache) setLines(s int32) []*Line {
	ch, off := c.chunkAt(s)
	return ch.lines[off : off+c.ways : off+c.ways]
}

// tag returns the tag-mirror entry at slot s.
func (c *Cache) tag(s int32) *mem.Addr {
	ch, off := c.chunkAt(s)
	return &ch.tags[off]
}

// wayLine returns the way-table entry at slot s.
func (c *Cache) wayLine(s int32) *Line {
	ch, off := c.chunkAt(s)
	return ch.lines[off]
}

// allocLine carves a Line body (with its permanent data buffer) out of the
// current chunk for way of set si, whose block is claimed, and records it
// in the way table. Bodies never move once carved.
func (c *Cache) allocLine(si, way int) *Line {
	wpl := c.geom.WordsPerLine()
	if len(c.chunkFree) == 0 {
		c.chunkFree = make([]Line, chunkLines)
		c.chunkSlab = make([]mem.Version, chunkLines*wpl)
	}
	l := &c.chunkFree[0]
	c.chunkFree = c.chunkFree[1:]
	l.Data = c.chunkSlab[:wpl:wpl]
	c.chunkSlab = c.chunkSlab[wpl:]
	l.idx = int32(si*c.ways + way)
	l.slot = c.setSlot[si] + int32(way)
	c.setLines(c.setSlot[si])[way] = l
	return l
}

// Lookup returns the line holding base, or nil on miss. It touches LRU state
// and hit/miss counters.
func (c *Cache) Lookup(base mem.Addr) *Line {
	if l := c.Peek(base); l != nil {
		c.clock++
		l.lru = c.clock
		c.stats.Hits++
		return l
	}
	c.stats.Misses++
	return nil
}

// Peek returns the line holding base without touching LRU or counters.
func (c *Cache) Peek(base mem.Addr) *Line {
	si := c.setIndex(base)
	if s := c.setSlot[si]; s >= 0 {
		ch, off := c.chunkAt(s)
		for i, t := range ch.tags[off : off+c.ways] {
			if t == base {
				if l := ch.lines[off+i]; l != nil && l.Valid {
					return l
				}
			}
		}
	}
	if len(c.ovLines) != 0 {
		if pos, ok := c.ovIdx.Get(base); ok {
			return c.ovLines[pos]
		}
	}
	return nil
}

// Insert fills base with data and returns the line plus the victim it
// displaced, if any. The caller owns disposing of the victim. Insert panics
// if the line is already present (protocol bug).
func (c *Cache) Insert(base mem.Addr, data []mem.Version) (*Line, *Victim) {
	if c.Peek(base) != nil {
		panic("cache: Insert of resident line")
	}
	c.clock++
	si := c.setIndex(base)
	s := c.block(si)
	// Prefer an invalid (or never-filled) way, then the least-recently-used
	// non-speculative way.
	var victim *Line
	vway := -1
	for i, l := range c.setLines(s) {
		if l == nil {
			victim, vway = nil, i
			break
		}
		if !l.Valid {
			victim = l
			break
		}
		if l.Speculative() {
			continue
		}
		if victim == nil || l.lru < victim.lru {
			victim = l
		}
	}
	full := bits.All(c.geom.WordsPerLine())
	if victim == nil && vway < 0 {
		// Every way pinned by speculative state: spill to the overflow area.
		c.stats.Spills++
		return c.ovInsert(base, data, full), nil
	}
	var out *Victim
	if victim == nil {
		victim = c.allocLine(si, vway)
	} else if victim.Valid {
		c.stats.Evictions++
		if victim.Dirty {
			c.stats.DirtyEvicts++
			// Only a dirty victim's data is meaningful to the caller (it must
			// be written back): snapshot it into a pooled buffer before the
			// slot is overwritten.
			out = &Victim{Base: victim.Base, Dirty: true, OW: victim.OW, Data: c.cloneData(victim.Data)}
		} else {
			out = &Victim{Base: victim.Base}
		}
	}
	victim.Base, victim.Valid, victim.VW = base, true, full
	victim.Dirty, victim.OW, victim.SR, victim.SM = false, 0, 0, 0
	victim.lru = c.clock
	victim.tracked = false
	copy(victim.Data, data)
	*c.tag(victim.slot) = base
	return victim, out
}

// ovInsert spills base into the overflow area: a pooled Line body with data
// carved from the transaction arena.
func (c *Cache) ovInsert(base mem.Addr, data []mem.Version, full bits.WordMask) *Line {
	var l *Line
	if n := len(c.ovPool); n > 0 {
		l = c.ovPool[n-1]
		c.ovPool = c.ovPool[:n-1]
	} else {
		l = &Line{}
	}
	*l = Line{Base: base, Valid: true, VW: full, Data: c.ovAlloc(data), lru: c.clock, idx: -1, slot: -1}
	c.ovIdx.Set(base, int32(len(c.ovLines)))
	c.ovLines = append(c.ovLines, l)
	c.ovDirty = true
	if len(c.ovLines) > c.stats.MaxOverflow {
		c.stats.MaxOverflow = len(c.ovLines)
	}
	return l
}

// ovAlloc carves one line of overflow data at the arena watermark and copies
// d into it. On exhaustion a larger slab replaces the current one; slices
// carved earlier keep the old slab alive, so growth never moves live data.
func (c *Cache) ovAlloc(d []mem.Version) []mem.Version {
	wpl := c.geom.WordsPerLine()
	if len(c.ovSlab)-c.ovW < wpl {
		n := 2 * len(c.ovSlab)
		if n < 8*wpl {
			n = 8 * wpl
		}
		c.ovSlab = make([]mem.Version, n)
		c.ovW = 0
	}
	out := c.ovSlab[c.ovW : c.ovW+wpl : c.ovW+wpl]
	c.ovW += wpl
	copy(out, d)
	return out
}

// ovWipe empties the overflow area at a transaction boundary: Line bodies
// (including any handed out by Invalidate this transaction) return to the
// pool, the index resets in O(1), and the arena watermark rewinds — no
// per-line or per-word clearing.
func (c *Cache) ovWipe() {
	for _, l := range c.ovLines {
		l.Data = nil
		c.ovPool = append(c.ovPool, l)
	}
	c.ovLines = c.ovLines[:0]
	for _, l := range c.ovRetired {
		l.Data = nil
		c.ovPool = append(c.ovPool, l)
	}
	c.ovRetired = c.ovRetired[:0]
	c.ovIdx.Reset()
	c.ovW = 0
	c.ovDirty = false
}

func (c *Cache) cloneData(d []mem.Version) []mem.Version {
	var out []mem.Version
	if n := len(c.bufFree); n > 0 {
		out = c.bufFree[n-1]
		c.bufFree = c.bufFree[:n-1]
	} else {
		out = make([]mem.Version, c.geom.WordsPerLine())
	}
	copy(out, d)
	return out
}

// Recycle returns a dead line-data buffer to the cache's pool. Callers hand
// back Victim buffers once the write-back has copied them.
func (c *Cache) Recycle(data []mem.Version) {
	if data != nil {
		c.bufFree = append(c.bufFree, data)
	}
}

// clearLine empties a main-array slot, keeping its identity (idx/slot) and
// its permanent data buffer, and clears the slot's tag-mirror entry.
func (c *Cache) clearLine(l *Line) {
	*c.tag(l.slot) = invalidTag
	d, idx, slot := l.Data, l.idx, l.slot
	*l = Line{Data: d, idx: idx, slot: slot}
}

// Invalidate drops the line holding base if present, returning it for
// inspection (SR/SM bits decide whether the processor violates). The
// returned line is a transient snapshot: its Data aliases storage that is
// reused by later fills, so callers must consume it before inserting.
func (c *Cache) Invalidate(base mem.Addr) *Line {
	if len(c.ovLines) != 0 {
		if pos, ok := c.ovIdx.Get(base); ok {
			l := c.ovLines[pos]
			last := len(c.ovLines) - 1
			if int(pos) != last {
				moved := c.ovLines[last]
				c.ovLines[pos] = moved
				c.ovIdx.Set(moved.Base, pos)
			}
			c.ovLines = c.ovLines[:last]
			c.ovIdx.Del(base)
			c.ovDirty = true
			c.ovRetired = append(c.ovRetired, l)
			c.stats.Invalidations++
			return l
		}
	}
	s := c.setSlot[c.setIndex(base)]
	if s < 0 {
		return nil
	}
	for _, l := range c.setLines(s) {
		if l != nil && l.Valid && l.Base == base {
			c.stats.Invalidations++
			// The snapshot lives in a per-cache scratch Line: the transient
			// contract (consume before the next cache operation) makes a heap
			// copy per invalidation pure waste.
			c.invSnap = *l
			c.clearLine(l)
			return &c.invSnap
		}
	}
	return nil
}

// ForEach calls fn for every valid line, including overflow lines, in a
// deterministic order (the simulator requires bit-identical replays).
// fn must not insert or invalidate lines.
func (c *Cache) ForEach(fn func(l *Line)) {
	for _, s := range c.setSlot {
		if s < 0 {
			continue
		}
		for _, l := range c.setLines(s) {
			if l != nil && l.Valid {
				fn(l)
			}
		}
	}
	for _, l := range c.overflowIter() {
		fn(l)
	}
}

// Track registers l as carrying speculative state (SR or SM) for the current
// transaction. Callers invoke it whenever they set an SR or SM bit; repeat
// calls on an already-tracked line are O(1) no-ops. Tracked lines are the
// only main-array lines CommitTx, RollbackTx, and ForEachSpeculative visit,
// which keeps transaction finalization proportional to the transaction's
// footprint rather than the cache size. Overflow lines are not tracked — the
// (almost always empty) overflow area is walked directly.
//
// The list is kept unique and sorted by logical idx via sorted insertion:
// speculative footprints are small and grow mostly in address-index order,
// so the common case is an O(1) append and finalization never sorts.
func (c *Cache) Track(l *Line) {
	if l.tracked || l.idx < 0 {
		return
	}
	l.tracked = true
	r := specRef{idx: l.idx, slot: l.slot}
	s := c.spec
	n := len(s)
	if n == 0 || s[n-1].idx < l.idx {
		c.spec = append(s, r)
		return
	}
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].idx < l.idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if s[lo].idx == l.idx {
		return // already listed (slot re-tracked after an invalidate + refill)
	}
	s = append(s, specRef{})
	copy(s[lo+1:], s[lo:])
	s[lo] = r
	c.spec = s
}

// ForEachSpeculative calls fn for every line that gained speculative state in
// the current transaction, in the same deterministic order ForEach would
// visit them (main array by ascending slot index, then overflow lines by
// ascending address). fn must not insert or invalidate lines.
func (c *Cache) ForEachSpeculative(fn func(l *Line)) {
	for _, r := range c.spec {
		l := c.wayLine(r.slot)
		// Skip stale entries (slot invalidated since tracking — the reset
		// cleared the flag).
		if !l.tracked || !l.Valid {
			continue
		}
		fn(l)
	}
	for _, l := range c.overflowIter() {
		fn(l)
	}
}

// overflowIter returns the live overflow lines in ascending Base order,
// rebuilding the sorted view only when the overflow set changed. The common
// case — nothing spilled — returns nil without touching memory.
func (c *Cache) overflowIter() []*Line {
	if len(c.ovLines) == 0 {
		return nil
	}
	if c.ovDirty {
		c.ovIter = append(c.ovIter[:0], c.ovLines...)
		sort.Slice(c.ovIter, func(i, j int) bool { return c.ovIter[i].Base < c.ovIter[j].Base })
		c.ovDirty = false
	}
	return c.ovIter
}

// RollbackTx undoes the current transaction: lines with SM bits hold
// uncommitted data and are dropped wholesale (lazy versioning makes abort a
// bulk invalidate); SR bits are gang-cleared along the dense tracked list.
// The overflow area — whose lines never outlive a transaction — is wiped in
// O(1) by resetting its index and arena watermark.
func (c *Cache) RollbackTx() {
	for _, r := range c.spec {
		l := c.wayLine(r.slot)
		if !l.tracked {
			continue // slot invalidated (and possibly re-filled) since tracking
		}
		l.tracked = false
		if !l.Valid {
			continue
		}
		if l.SM.Any() {
			c.clearLine(l)
			continue
		}
		l.SR = 0
	}
	c.spec = c.spec[:0]
	c.ovWipe()
}

// CommitTx finalizes the current transaction locally: every SM word's
// version becomes tid, SM words mark the line Dirty (this processor is now
// the owner until write-back), and SR/SM are gang-cleared. Overflow lines
// are drained back toward the main array opportunistically; any that cannot
// fit are returned as victims for the processor to write back or drop.
func (c *Cache) CommitTx(tid mem.Version) []Victim {
	return c.commitTx(tid, false)
}

// CommitTxWriteThrough is CommitTx for write-through commit architectures:
// committed data travels to memory with the commit itself, so finalized lines
// stay clean and unowned (Dirty=false, OW=0) instead of becoming owned.
func (c *Cache) CommitTxWriteThrough(tid mem.Version) []Victim {
	return c.commitTx(tid, true)
}

// finishLine finalizes one line's speculative state at commit. Under
// write-back ownership, SM words make the line Dirty with OW=SM; under
// write-through, memory already has the data, so the line stays clean.
func (c *Cache) finishLine(l *Line, tid mem.Version, writeThrough bool) {
	if l.SM.Any() {
		for w := range l.Data {
			if l.SM.Has(w) {
				l.Data[w] = tid
			}
		}
		if !writeThrough {
			// The dirty-bit rule guarantees a line is clean before it is
			// speculatively written, so the owned words are exactly SM.
			l.Dirty = true
			l.OW = l.SM
		}
	}
	l.SR = 0
	l.SM = 0
}

func (c *Cache) commitTx(tid mem.Version, writeThrough bool) []Victim {
	var spillOut []Victim
	for _, r := range c.spec {
		l := c.wayLine(r.slot)
		if !l.tracked {
			continue // slot invalidated (and possibly re-filled) since tracking
		}
		l.tracked = false
		if l.Valid {
			c.finishLine(l, tid, writeThrough)
		}
	}
	c.spec = c.spec[:0]
	for _, l := range c.overflowIter() {
		c.finishLine(l, tid, writeThrough)
		// Try to re-home the line in its set now that pins are released.
		si := c.setIndex(l.Base)
		s := c.block(si)
		var slot *Line
		sway := -1
		for i, w := range c.setLines(s) {
			if w == nil {
				slot, sway = nil, i
				break
			}
			if !w.Valid {
				slot = w
				break
			}
			if w.Speculative() {
				continue
			}
			if slot == nil || w.lru < slot.lru {
				slot = w
			}
		}
		if sway < 0 && (slot == nil || slot.Speculative()) {
			// Still no room: hand the line to the processor as a victim.
			spillOut = append(spillOut, c.makeVictim(l.Base, l.Dirty, l.OW, l.Data))
			continue
		}
		if slot == nil {
			slot = c.allocLine(si, sway)
		} else if slot.Valid {
			c.stats.Evictions++
			if slot.Dirty {
				c.stats.DirtyEvicts++
			}
			spillOut = append(spillOut, c.makeVictim(slot.Base, slot.Dirty, slot.OW, slot.Data))
		}
		slot.Base, slot.Valid, slot.VW = l.Base, true, l.VW
		slot.Dirty, slot.OW = l.Dirty, l.OW
		slot.SR, slot.SM = 0, 0
		slot.lru = l.lru
		slot.tracked = false
		copy(slot.Data, l.Data)
		*c.tag(slot.slot) = l.Base
	}
	c.ovWipe()
	return spillOut
}

// makeVictim builds an eviction record; only dirty victims need their data
// snapshotted (clean drops carry no payload).
func (c *Cache) makeVictim(base mem.Addr, dirty bool, ow bits.WordMask, data []mem.Version) Victim {
	v := Victim{Base: base, Dirty: dirty, OW: ow}
	if dirty {
		v.Data = c.cloneData(data)
	}
	return v
}

// Audit scans every resident line for violated structural invariants and
// returns a descriptive error for the first one found (nil means the cache
// is consistent). With atBoundary set, the scan runs the commit-boundary
// rules as well: a transaction just finalized, so no line may carry
// speculative state and the tracking list must be drained — a line that
// kept SR/SM bits here escaped CommitTx/RollbackTx and would silently skip
// conflict detection (a "spec leak"). It is a debugging aid, not a hot-path
// operation: the continuous invariant auditor calls it at transaction
// boundaries when enabled.
func (c *Cache) Audit(atBoundary bool) error {
	check := func(l *Line, overflowLine bool) error {
		if len(l.Data) != c.geom.WordsPerLine() {
			return fmt.Errorf("cache: line %#x data length %d, want %d words", l.Base, len(l.Data), c.geom.WordsPerLine())
		}
		if l.SM&^l.VW != 0 {
			return fmt.Errorf("cache: line %#x has SM words %#x outside valid words %#x", l.Base, uint64(l.SM), uint64(l.VW))
		}
		if l.Dirty && l.SM.Any() {
			return fmt.Errorf("cache: line %#x dirty with uncommitted SM words %#x (dirty-bit rule violated)", l.Base, uint64(l.SM))
		}
		if l.Dirty != l.OW.Any() {
			return fmt.Errorf("cache: line %#x dirty=%v but owned words %#x", l.Base, l.Dirty, uint64(l.OW))
		}
		if overflowLine {
			if l.idx != -1 {
				return fmt.Errorf("cache: overflow line %#x carries main-array slot %d", l.Base, l.idx)
			}
		} else {
			if t := *c.tag(l.slot); t != l.Base {
				return fmt.Errorf("cache: line %#x tag mirror holds %#x", l.Base, uint64(t))
			}
			if l.Speculative() && !l.tracked {
				return fmt.Errorf("cache: line %#x speculative (SR %#x SM %#x) but untracked — commit/rollback would miss it",
					l.Base, uint64(l.SR), uint64(l.SM))
			}
		}
		if atBoundary && l.Speculative() {
			return fmt.Errorf("cache: spec leak — line %#x kept SR %#x SM %#x past a transaction boundary",
				l.Base, uint64(l.SR), uint64(l.SM))
		}
		return nil
	}
	for _, s := range c.setSlot {
		if s < 0 {
			continue
		}
		for _, l := range c.setLines(s) {
			if l == nil || !l.Valid {
				continue
			}
			if err := check(l, false); err != nil {
				return err
			}
		}
	}
	for _, l := range c.overflowIter() {
		if err := check(l, true); err != nil {
			return err
		}
	}
	if atBoundary {
		for _, r := range c.spec {
			if l := c.wayLine(r.slot); l != nil && l.tracked {
				return fmt.Errorf("cache: tracking list not drained at transaction boundary (line %#x)", l.Base)
			}
		}
	}
	return nil
}

// SpeculativeLines returns how many resident lines carry SR or SM state.
func (c *Cache) SpeculativeLines() int {
	n := 0
	c.ForEach(func(l *Line) {
		if l.Speculative() {
			n++
		}
	})
	return n
}

// TagArray is the L1 timing filter: a tag-only set-associative array that
// decides whether an access pays L1 or L2 latency. It holds no data and no
// protocol state.
type TagArray struct {
	geom      mem.Geometry
	sets      int
	ways      int
	lineShift uint
	tags      []mem.Addr
	valid     []bool
	lru       []uint64
	clock     uint64
}

// NewTagArray builds an L1 filter of sizeBytes. It panics on a shape
// CheckShape rejects.
func NewTagArray(geom mem.Geometry, sizeBytes, ways int) *TagArray {
	if err := CheckShape(geom, sizeBytes, ways); err != nil {
		panic(err.Error())
	}
	nlines := sizeBytes / geom.LineSize
	sets := nlines / ways
	return &TagArray{
		geom:      geom,
		sets:      sets,
		ways:      ways,
		lineShift: uint(stdbits.TrailingZeros(uint(geom.LineSize))),
		tags:      make([]mem.Addr, nlines),
		valid:     make([]bool, nlines),
		lru:       make([]uint64, nlines),
	}
}

// Access reports whether base hits, inserting it (evicting LRU) on miss.
func (t *TagArray) Access(base mem.Addr) bool {
	t.clock++
	si := int(uint64(base)>>t.lineShift) & (t.sets - 1)
	lo := si * t.ways
	vi := lo
	for i := lo; i < lo+t.ways; i++ {
		if t.valid[i] && t.tags[i] == base {
			t.lru[i] = t.clock
			return true
		}
		if !t.valid[vi] {
			continue // keep first invalid slot as victim
		}
		if !t.valid[i] || t.lru[i] < t.lru[vi] {
			vi = i
		}
	}
	t.tags[vi] = base
	t.valid[vi] = true
	t.lru[vi] = t.clock
	return false
}

// Invalidate drops base from the filter if present.
func (t *TagArray) Invalidate(base mem.Addr) {
	si := int(uint64(base)>>t.lineShift) & (t.sets - 1)
	lo := si * t.ways
	for i := lo; i < lo+t.ways; i++ {
		if t.valid[i] && t.tags[i] == base {
			t.valid[i] = false
			return
		}
	}
}
