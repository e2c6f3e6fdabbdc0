package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"scalabletcc/internal/mem"
	"scalabletcc/internal/workload"
)

// lineOp decodes one random operation on a directory's lines: which line
// (drawn from a few pages, first and last lines of a page favoured so page
// boundaries are crossed often) and whether to touch it or only look it up.
func lineOp(g mem.Geometry, op uint32) (base mem.Addr, touch bool) {
	pages := []mem.Addr{0, 1, 2, 7, 1 << 20, 1<<32 - 1, 1 << 40}
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
	return page*mem.Addr(g.PageSize) + mem.Addr(line)*mem.Addr(g.LineSize), op&(1<<6) != 0
}

// A directory's snapshot restored into a fresh machine lists its entries in
// the same first-touch order and resolves every line to the same id; its
// next snapshot, memory lines and directory-cache residents included, is
// the same as the original's.
func TestDirectoryLinesRoundTrip(t *testing.T) {
	for _, ls := range []int{32, 64} {
		g := mem.Geometry{LineSize: ls, WordSize: 4, PageSize: 4096}
		newDir := func() *Directory {
			cfg := DefaultConfig(2)
			cfg.Geometry = g
			cfg.DirCacheEntries = 4
			prog := &scriptProgram{name: "empty", txs: [][]workload.Tx{{}, {}}, homing: map[mem.Addr]int{}}
			sys, err := NewSystem(cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			return sys.dirs[0]
		}
		f := func(ops []uint32) bool {
			d := newDir()
			var probes []mem.Addr
			for _, op := range ops {
				base, touch := lineOp(g, op)
				probes = append(probes, base)
				if touch {
					_, id := d.entry(base)
					if op&(1<<7) != 0 {
						d.memLine(id)[0] = mem.Version(op)
					}
				}
			}
			ds := d.snapshotState()
			r := newDir()
			if err := r.restoreState(&ds); err != nil {
				t.Log(err)
				return false
			}
			if !reflect.DeepEqual(r.lines.Bases(), d.lines.Bases()) {
				return false
			}
			for _, base := range probes {
				id, ok := d.lines.Lookup(base)
				rid, rok := r.lines.Lookup(base)
				if ok != rok || id != rid {
					return false
				}
			}
			again := r.snapshotState()
			return reflect.DeepEqual(again, ds)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("LineSize %d: %v", ls, err)
		}
	}
}

// The O(1) directory-cache list evicts what a scan for the oldest stamp
// evicts: the same hits and misses, and the same residents and stamps.
func TestDirCacheLRUMatchesScan(t *testing.T) {
	f := func(touches []uint8, capacity uint8) bool {
		capacity = capacity%8 + 1
		var c dirCacheLRU
		c.grow()
		stamps := map[int32]uint64{}
		clock := uint64(0)
		for _, x := range touches {
			id := int32(x % 24)
			clock++
			_, hit := stamps[id]
			if !hit && len(stamps) >= int(capacity) {
				victim, oldest := int32(-1), ^uint64(0)
				for a, s := range stamps {
					if s < oldest {
						oldest, victim = s, a
					}
				}
				delete(stamps, victim)
			}
			stamps[id] = clock
			if c.touch(id, int(capacity)) != hit {
				return false
			}
		}
		if c.n != len(stamps) {
			return false
		}
		prev := uint64(0)
		for id := c.tail; c.n > 0 && id >= 0; id = c.link(id).prev {
			if s := c.link(id).stamp; s != stamps[id] || s <= prev {
				return false
			}
			prev = c.link(id).stamp
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
