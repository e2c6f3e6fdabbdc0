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
//
// Both states are written column by column (DESIGN §42): parallel arrays of
// plain numbers, which encode in a few tight loops and hold no pointers.

// Line flags, the Flags column of a CacheState.
const (
	FlagDirty   = 1 << iota // the line holds committed data newer than memory
	FlagTracked             // the line is on the transaction's speculative-line list
)

// CacheState is a cache's full checkpoint state. Line i is Base[i], with
// valid words VW[i], LRU stamp LRU[i] and data Data[i*wpl:(i+1)*wpl], at
// way Way[i] of the set Base[i] indexes to. The main array's lines come
// first, in ascending (set, way) order — way position must be preserved so
// the first-free-way scan in Insert behaves identically after restore —
// then the overflow area's in insertion order, with way -1.
//
// The few lines with protocol state (dirty, tracked, or any owned, read or
// modified word) are listed again by index, ascending, in Flagged, with that
// state in Flags, OW, SR and SM.
type CacheState struct {
	Clock uint64 `json:"clock"`
	Stats Stats  `json:"stats"`

	Way  []int           `json:"way,omitempty"`
	Base []mem.Addr      `json:"base,omitempty"`
	VW   []bits.WordMask `json:"vw,omitempty"`
	LRU  []uint64        `json:"lru,omitempty"`
	Data []mem.Version   `json:"data,omitempty"`

	Flagged []int           `json:"flagged,omitempty"`
	Flags   []uint64        `json:"flags,omitempty"`
	OW      []bits.WordMask `json:"ow,omitempty"`
	SR      []bits.WordMask `json:"sr,omitempty"`
	SM      []bits.WordMask `json:"sm,omitempty"`
}

// add appends line l at way (-1 for overflow) to the columns.
func (s *CacheState) add(way int, l *Line) {
	var flags uint64
	if l.Dirty {
		flags |= FlagDirty
	}
	if l.tracked {
		flags |= FlagTracked
	}
	if flags != 0 || l.OW != 0 || l.SR != 0 || l.SM != 0 {
		s.Flagged = append(s.Flagged, len(s.Base))
		s.Flags = append(s.Flags, flags)
		s.OW = append(s.OW, l.OW)
		s.SR = append(s.SR, l.SR)
		s.SM = append(s.SM, l.SM)
	}
	s.Way = append(s.Way, way)
	s.Base = append(s.Base, l.Base)
	s.VW = append(s.VW, l.VW)
	s.LRU = append(s.LRU, l.lru)
	s.Data = append(s.Data, l.Data...)
}

// Snapshot captures the cache's observable state.
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
	if n > 0 {
		s.Way = make([]int, 0, n)
		s.Base = make([]mem.Addr, 0, n)
		s.VW = make([]bits.WordMask, 0, n)
		s.LRU = make([]uint64, 0, n)
		s.Data = make([]mem.Version, 0, n*c.geom.WordsPerLine())
	}
	for _, b := range c.setSlot {
		if b < 0 {
			continue
		}
		for w, l := range c.setLines(b) {
			if l != nil && l.Valid {
				s.add(w, l)
			}
		}
	}
	for _, l := range c.ovLines {
		s.add(-1, l)
	}
	return s
}

// Restore installs a snapshot into a freshly constructed cache of the same
// shape. Lines are re-filled at their original (set, way) positions and the
// speculative-tracking list is rebuilt; the stats and LRU clock are taken
// from the snapshot.
func (c *Cache) Restore(s *CacheState) error {
	wpl := c.geom.WordsPerLine()
	n := len(s.Base)
	nf := len(s.Flagged)
	switch {
	case len(s.Way) != n || len(s.VW) != n || len(s.LRU) != n:
		return fmt.Errorf("cache: restore line columns of unequal length (way %d, base %d, vw %d, lru %d)",
			len(s.Way), n, len(s.VW), len(s.LRU))
	case len(s.Data)%wpl != 0:
		return fmt.Errorf("cache: restore data column of %d words is not a whole number of %d-word lines", len(s.Data), wpl)
	case len(s.Data)/wpl != n:
		return fmt.Errorf("cache: restore data column holds %d lines, the line columns %d", len(s.Data)/wpl, n)
	case len(s.Flags) != nf || len(s.OW) != nf || len(s.SR) != nf || len(s.SM) != nf:
		return fmt.Errorf("cache: restore flag columns of unequal length (flagged %d, flags %d, ow %d, sr %d, sm %d)",
			nf, len(s.Flags), len(s.OW), len(s.SR), len(s.SM))
	}
	prevSet, prevWay := -1, -1
	f := 0 // the next Flagged row
	for i, base := range s.Base {
		var (
			flags      uint64
			ow, sr, sm bits.WordMask
		)
		if f < nf && s.Flagged[f] == i {
			flags, ow, sr, sm = s.Flags[f], s.OW[f], s.SR[f], s.SM[f]
			f++
		}
		data := s.Data[i*wpl : (i+1)*wpl]
		if way := s.Way[i]; way != -1 {
			set := c.setIndex(base)
			switch {
			case way < 0 || way >= c.ways:
				return fmt.Errorf("cache: restore line %#x at way %d outside %d ways", base, way, c.ways)
			case set < prevSet || set == prevSet && way <= prevWay:
				return fmt.Errorf("cache: restore line %#x at (set %d, way %d) out of order or repeated", base, set, way)
			}
			prevSet, prevWay = set, way
			slot := c.block(set) + int32(way)
			l := c.wayLine(slot)
			if l == nil {
				l = c.allocLine(set, way)
			}
			l.Base, l.Valid, l.VW = base, true, s.VW[i]
			l.Dirty, l.OW, l.SR, l.SM = flags&FlagDirty != 0, ow, sr, sm
			l.lru = s.LRU[i]
			l.tracked = flags&FlagTracked != 0
			copy(l.Data, data)
			*c.tag(slot) = base
			if l.tracked {
				// Lines arrive in ascending (set, way) = ascending logical idx
				// order, so appending keeps the tracking list sorted.
				c.spec = append(c.spec, specRef{idx: l.idx, slot: l.slot})
			}
			continue
		}
		// Overflow lines follow the main array's: a main line after one
		// fails the order check above.
		prevSet = c.sets
		if c.Peek(base) != nil {
			return fmt.Errorf("cache: restore overflow line %#x already resident", base)
		}
		l := c.ovInsert(base, data, s.VW[i])
		l.Dirty, l.OW, l.SR, l.SM = flags&FlagDirty != 0, ow, sr, sm
		l.lru = s.LRU[i]
	}
	if f != nf {
		return fmt.Errorf("cache: restore flagged line %d out of order or past the %d lines", s.Flagged[f], n)
	}
	c.clock = s.Clock
	c.stats = s.Stats
	return nil
}

// TagArrayState is an L1 tag filter's full checkpoint state. The filter is
// timing-only, but timing is part of determinism, so it snapshots
// completely. It lists, in ascending order, only the ways whose tag, valid
// bit or LRU stamp is set: way Way[k] holds tag Tag[k] with stamp LRU[k],
// and is valid unless it is also listed in Invalid (an invalidated way keeps
// its tag and stamp). Every other way is zero.
type TagArrayState struct {
	Clock   uint64     `json:"clock"`
	Way     []int      `json:"way,omitempty"`
	Tag     []mem.Addr `json:"tag,omitempty"`
	LRU     []uint64   `json:"lru,omitempty"`
	Invalid []int      `json:"invalid,omitempty"`
}

// Snapshot captures the tag filter's state.
func (t *TagArray) Snapshot() *TagArrayState {
	s := &TagArrayState{Clock: t.clock}
	n := 0
	for i := range t.tags {
		if t.tags[i] != 0 || t.valid[i] || t.lru[i] != 0 {
			n++
		}
	}
	if n == 0 {
		return s
	}
	s.Way, s.Tag, s.LRU = make([]int, 0, n), make([]mem.Addr, 0, n), make([]uint64, 0, n)
	for i := range t.tags {
		if t.tags[i] != 0 || t.valid[i] || t.lru[i] != 0 {
			s.Way = append(s.Way, i)
			s.Tag = append(s.Tag, t.tags[i])
			s.LRU = append(s.LRU, t.lru[i])
			if !t.valid[i] {
				s.Invalid = append(s.Invalid, i)
			}
		}
	}
	return s
}

// Restore installs a snapshot into a fresh filter of the same shape.
func (t *TagArray) Restore(s *TagArrayState) error {
	if len(s.Tag) != len(s.Way) || len(s.LRU) != len(s.Way) {
		return fmt.Errorf("cache: restore L1 columns of unequal length (way %d, tag %d, lru %d)",
			len(s.Way), len(s.Tag), len(s.LRU))
	}
	prev, inv := -1, 0
	for k, w := range s.Way {
		switch {
		case w < 0 || w >= len(t.tags):
			return fmt.Errorf("cache: restore L1 way %d outside %d ways", w, len(t.tags))
		case w <= prev:
			return fmt.Errorf("cache: restore L1 way %d listed twice or out of order", w)
		}
		prev = w
		t.tags[w], t.lru[w] = s.Tag[k], s.LRU[k]
		t.valid[w] = inv == len(s.Invalid) || s.Invalid[inv] != w
		if !t.valid[w] {
			inv++
		}
	}
	if inv != len(s.Invalid) {
		return fmt.Errorf("cache: restore L1 invalid way %d is not a listed way in order", s.Invalid[inv])
	}
	t.clock = s.Clock
	return nil
}
