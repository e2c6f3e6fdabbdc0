package mem

import (
	"fmt"
	"sort"
)

// Snapshot/restore support for kernel-level checkpoints. Each structure in
// this package restores by replaying its own mutation path (Set, Append) in a
// canonical order, so a restored structure is behaviourally identical to
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

// Samples returns the read log in insertion (first-read) order. The slice is
// live; callers must not modify it.
func (r *ReadSet) Samples() []ReadSample { return r.list }

// Restore resets the read-set to the given samples, replayed in order. It
// refuses a repeated address: the log samples each word once, and the read
// bits that gate Append rely on it.
func (r *ReadSet) Restore(samples []ReadSample) error {
	r.Reset()
	for _, s := range samples {
		if _, dup := r.idx.Insert(s.Addr, int32(len(r.list))); dup {
			return fmt.Errorf("mem: restore read-set address %#x sampled twice", s.Addr)
		}
		r.Append(s.Addr, s.Version)
	}
	r.indexed = len(r.list)
	return nil
}
