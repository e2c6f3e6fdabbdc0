package mem

import (
	"fmt"
	"sort"
)

// Snapshot/restore support for kernel-level checkpoints. Each structure in
// this package restores by replaying its own mutation path (Set, Line, Add)
// in a canonical order, so a restored structure is behaviourally identical to
// the original: every lookup answers the same, and the internal growth
// trajectory from the restored point matches the original's.

// ForEach calls fn for every live (address, id) pair. Iteration order is the
// table's probe order — unspecified; callers needing a canonical order sort.
func (x *AddrIndex) ForEach(fn func(a Addr, id int32)) {
	for i := range x.tab {
		if s := &x.tab[i]; s.gen == x.gen && x.gen != 0 {
			fn(s.addr, s.id)
		}
	}
}

// PageHome is one first-touch page assignment.
type PageHome struct {
	Page Addr `json:"page"`
	Node int  `json:"node"`
}

// Snapshot returns every page-to-home assignment sorted by page address.
func (m *Map) Snapshot() []PageHome {
	out := make([]PageHome, 0, m.home.Len())
	m.home.ForEach(func(a Addr, id int32) {
		out = append(out, PageHome{Page: a, Node: int(id)})
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Page < out[j].Page })
	return out
}

// Restore resets the map's page assignments to a snapshot.
func (m *Map) Restore(pages []PageHome) error {
	m.home.Reset()
	for _, p := range pages {
		if p.Page != m.geom.Page(p.Page) {
			return fmt.Errorf("mem: restore page %#x is not page-aligned", p.Page)
		}
		if p.Node < 0 || p.Node >= m.nodes {
			return fmt.Errorf("mem: restore page %#x homed at node %d of %d", p.Page, p.Node, m.nodes)
		}
		m.home.Set(p.Page, int32(p.Node))
	}
	return nil
}

// LineImage is one memory line's base address and version vector.
type LineImage struct {
	Base  Addr      `json:"base"`
	Words []Version `json:"words"`
}

// Snapshot returns every touched line in first-touch (position) order, so
// restoring replays the original allocation sequence. The lines' words share
// one allocation.
func (m *Memory) Snapshot() []LineImage {
	out := make([]LineImage, m.idx.Len())
	wpl := m.geom.WordsPerLine()
	words := make([]Version, len(out)*wpl)
	m.idx.ForEach(func(a Addr, id int32) {
		w := words[int(id)*wpl : int(id+1)*wpl : int(id+1)*wpl]
		copy(w, m.line(id))
		out[id] = LineImage{Base: a, Words: w}
	})
	return out
}

// Restore resets the memory bank to a snapshot: lines are re-touched in the
// snapshot's order and their version vectors installed.
func (m *Memory) Restore(lines []LineImage) error {
	wpl := m.geom.WordsPerLine()
	m.idx.Reset()
	m.chunks = nil
	for _, li := range lines {
		if li.Base != m.geom.Line(li.Base) {
			return fmt.Errorf("mem: restore line %#x is not line-aligned", li.Base)
		}
		if len(li.Words) != wpl {
			return fmt.Errorf("mem: restore line %#x has %d words, want %d", li.Base, len(li.Words), wpl)
		}
		if _, dup := m.idx.Get(li.Base); dup {
			return fmt.Errorf("mem: restore line %#x duplicated", li.Base)
		}
		copy(m.Line(li.Base), li.Words)
	}
	return nil
}

// Samples returns the read log in insertion (first-read) order. The slice is
// live; callers must not modify it.
func (r *ReadSet) Samples() []ReadSample { return r.list }

// Restore resets the read-set to the given samples, replayed in order.
func (r *ReadSet) Restore(samples []ReadSample) {
	r.Reset()
	for _, s := range samples {
		r.Add(s.Addr, s.Version)
	}
}
