package core

import (
	"fmt"

	"scalabletcc/internal/mem"
	"scalabletcc/internal/verify"
)

// FinalMemoryView assembles the machine's end-of-run view of every word the
// program ever committed: main memory overlaid with the owned words still
// held in processor caches (the write-back protocol leaves the latest data
// at the last committer until eviction or forwarding).
func (s *System) FinalMemoryView() map[mem.Addr]mem.Version {
	g := s.cfg.Geometry
	out := make(map[mem.Addr]mem.Version)
	for _, d := range s.dirs {
		for id, base := range d.lines.Bases() {
			for w, v := range d.memLine(int32(id)) {
				if v != 0 {
					out[g.WordAddr(base, w)] = v
				}
			}
		}
	}
	// Owned words overlay memory monotonically — exactly what the flush
	// paths do. (With line-granularity tracking a partially-valid owner can
	// nominally "own" words whose latest data already reached memory via an
	// earlier transfer; its stale copies never win.)
	for _, d := range s.dirs {
		for id, base := range d.lines.Bases() {
			e := d.entryAt(int32(id))
			if e.owner < 0 {
				continue
			}
			line := s.procs[e.owner].cache.Peek(base)
			if line == nil || !line.Dirty {
				continue
			}
			for w := 0; w < g.WordsPerLine(); w++ {
				if a := g.WordAddr(base, w); e.ownedWords.Has(w) && line.Data[w] > out[a] {
					out[a] = line.Data[w]
				}
			}
		}
	}
	return out
}

// AuditFinalMemory compares the machine's final state against the TID-serial
// ideal derived from the commit log. It returns a descriptive error for the
// first mismatch: a word whose committed data was lost or duplicated by the
// data-movement protocol (write-backs, flushes, ownership transfers). The
// run must have collected the commit log.
func (s *System) AuditFinalMemory() error {
	if !s.collectLog {
		return fmt.Errorf("core: AuditFinalMemory requires CollectCommitLog(true)")
	}
	got := s.FinalMemoryView()
	for _, w := range verify.FinalMemory(s.commitLog) {
		if got[w.Addr] != w.Version {
			return fmt.Errorf("core: final memory mismatch at %#x: machine has version %d, TID-serial order requires %d",
				w.Addr, got[w.Addr], w.Version)
		}
	}
	return nil
}
