package cache

import (
	"fmt"

	"scalabletcc/internal/bits"
	"scalabletcc/internal/mem"
)

// Snapshot/restore support for kernel-level checkpoints.
//
// A snapshot captures only *observable* cache state: valid lines (with their
// protocol bits, data, and LRU stamps), the LRU clock, and the statistics.
// Internal allocator layout — block allocation order, chunk carving, buffer
// pools, the overflow arena watermark — is deliberately excluded: none of it
// affects which line an operation touches, which victim an insertion picks
// (LRU stamps are unique, so selection never tie-breaks on layout), or any
// reported number. A restored cache replays the original's behaviour exactly
// without being bit-identical in memory.

// LineState is one resident line in snapshot form. Main-array lines carry
// their (set, way) position — way position must be preserved so the
// first-free-way scan in Insert behaves identically after restore. Overflow
// lines use Set = Way = -1.
type LineState struct {
	Set     int           `json:"set"`
	Way     int           `json:"way"`
	Base    mem.Addr      `json:"base"`
	VW      bits.WordMask `json:"vw"`
	Dirty   bool          `json:"dirty,omitempty"`
	OW      bits.WordMask `json:"ow,omitempty"`
	SR      bits.WordMask `json:"sr,omitempty"`
	SM      bits.WordMask `json:"sm,omitempty"`
	LRU     uint64        `json:"lru"`
	Tracked bool          `json:"tracked,omitempty"`
	Data    []mem.Version `json:"data"`
}

// CacheState is a cache's full checkpoint state.
type CacheState struct {
	// Lines holds the valid main-array lines in ascending (set, way) order;
	// Overflow holds spilled lines in their insertion order.
	Lines    []LineState `json:"lines"`
	Overflow []LineState `json:"overflow,omitempty"`
	Clock    uint64      `json:"clock"`
	Stats    Stats       `json:"stats"`
}

// Snapshot captures the cache's observable state. The lines' data words
// share one allocation.
func (c *Cache) Snapshot() *CacheState {
	s := &CacheState{Clock: c.clock, Stats: c.stats}
	n := len(c.ovLines)
	for _, ch := range c.chunks {
		for _, l := range ch.lines {
			if l != nil && l.Valid {
				n++
			}
		}
	}
	wpl := c.geom.WordsPerLine()
	slab := make([]mem.Version, 0, n*wpl)
	copyData := func(d []mem.Version) []mem.Version {
		slab = append(slab, d...)
		return slab[len(slab)-len(d) : len(slab) : len(slab)]
	}
	if n > len(c.ovLines) {
		s.Lines = make([]LineState, 0, n-len(c.ovLines))
	}
	for si, b := range c.setSlot {
		if b < 0 {
			continue
		}
		for w, l := range c.setLines(b) {
			if l == nil || !l.Valid {
				continue
			}
			s.Lines = append(s.Lines, LineState{
				Set: si, Way: w, Base: l.Base, VW: l.VW,
				Dirty: l.Dirty, OW: l.OW, SR: l.SR, SM: l.SM,
				LRU: l.lru, Tracked: l.tracked,
				Data: copyData(l.Data),
			})
		}
	}
	for _, l := range c.ovLines {
		s.Overflow = append(s.Overflow, LineState{
			Set: -1, Way: -1, Base: l.Base, VW: l.VW,
			Dirty: l.Dirty, OW: l.OW, SR: l.SR, SM: l.SM,
			LRU:  l.lru,
			Data: copyData(l.Data),
		})
	}
	return s
}

// Restore installs a snapshot into a freshly constructed cache of the same
// shape. Lines are re-filled at their original (set, way) positions and the
// speculative-tracking list is rebuilt; the stats and LRU clock are taken
// from the snapshot.
func (c *Cache) Restore(s *CacheState) error {
	wpl := c.geom.WordsPerLine()
	prevSet, prevWay := -1, -1
	for i := range s.Lines {
		ls := &s.Lines[i]
		switch {
		case ls.Set < 0 || ls.Set >= c.sets || ls.Way < 0 || ls.Way >= c.ways:
			return fmt.Errorf("cache: restore line %#x at set %d way %d outside %dx%d shape",
				ls.Base, ls.Set, ls.Way, c.sets, c.ways)
		case len(ls.Data) != wpl:
			return fmt.Errorf("cache: restore line %#x has %d data words, want %d", ls.Base, len(ls.Data), wpl)
		case c.setIndex(ls.Base) != ls.Set:
			return fmt.Errorf("cache: restore line %#x does not index to set %d", ls.Base, ls.Set)
		case ls.Set < prevSet || (ls.Set == prevSet && ls.Way <= prevWay):
			return fmt.Errorf("cache: restore lines not in ascending (set, way) order at %d", i)
		}
		prevSet, prevWay = ls.Set, ls.Way
		slot := c.block(ls.Set) + int32(ls.Way)
		l := c.wayLine(slot)
		if l == nil {
			l = c.allocLine(ls.Set, ls.Way)
		} else if l.Valid {
			return fmt.Errorf("cache: restore set %d way %d filled twice", ls.Set, ls.Way)
		}
		l.Base, l.Valid, l.VW = ls.Base, true, ls.VW
		l.Dirty, l.OW, l.SR, l.SM = ls.Dirty, ls.OW, ls.SR, ls.SM
		l.lru = ls.LRU
		l.tracked = ls.Tracked
		copy(l.Data, ls.Data)
		*c.tag(slot) = ls.Base
		if ls.Tracked {
			// Lines arrive in ascending (set, way) = ascending logical idx
			// order, so appending keeps the tracking list sorted.
			c.spec = append(c.spec, specRef{idx: l.idx, slot: l.slot})
		}
	}
	for i := range s.Overflow {
		ls := &s.Overflow[i]
		if len(ls.Data) != wpl {
			return fmt.Errorf("cache: restore overflow line %#x has %d data words, want %d", ls.Base, len(ls.Data), wpl)
		}
		if c.Peek(ls.Base) != nil {
			return fmt.Errorf("cache: restore overflow line %#x already resident", ls.Base)
		}
		l := c.ovInsert(ls.Base, ls.Data, ls.VW)
		l.Dirty, l.OW, l.SR, l.SM = ls.Dirty, ls.OW, ls.SR, ls.SM
		l.lru = ls.LRU
	}
	c.clock = s.Clock
	c.stats = s.Stats
	return nil
}

// TagArrayState is an L1 tag filter's full checkpoint state. The filter is
// timing-only, but timing is part of determinism, so it snapshots completely.
type TagArrayState struct {
	Tags  []mem.Addr `json:"tags"`
	Valid []bool     `json:"valid"`
	LRU   []uint64   `json:"lru"`
	Clock uint64     `json:"clock"`
}

// Snapshot captures the tag filter's state.
func (t *TagArray) Snapshot() *TagArrayState {
	return &TagArrayState{
		Tags:  append([]mem.Addr(nil), t.tags...),
		Valid: append([]bool(nil), t.valid...),
		LRU:   append([]uint64(nil), t.lru...),
		Clock: t.clock,
	}
}

// Restore installs a snapshot into a filter of the same shape.
func (t *TagArray) Restore(s *TagArrayState) error {
	if len(s.Tags) != len(t.tags) || len(s.Valid) != len(t.valid) || len(s.LRU) != len(t.lru) {
		return fmt.Errorf("cache: restore tag array sized %d/%d/%d, filter has %d lines",
			len(s.Tags), len(s.Valid), len(s.LRU), len(t.tags))
	}
	copy(t.tags, s.Tags)
	copy(t.valid, s.Valid)
	copy(t.lru, s.LRU)
	t.clock = s.Clock
	return nil
}
