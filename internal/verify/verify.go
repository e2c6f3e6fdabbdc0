// Package verify is the executable form of the paper's correctness claim:
// committed transactions are serializable in TID order.
//
// The simulator does not move real data; every memory word carries a
// *version* — the TID of the last committed writer. Versions flow through
// caches, write-backs, owner flushes, and load replies exactly as data
// would. Each committed transaction logs, per word, the version it observed
// on first read (reads of its own uncommitted writes excluded) and the
// words it wrote. Check replays the log in TID order against an ideal
// memory; any read that did not observe the TID-serial value is a protocol
// bug — in the data-race sense, a violation the hardware failed to detect.
//
// A record's two sides are flat slices, not maps, and the replay neither
// sorts them nor builds a map per record: the ideal memory is one
// open-addressed table, and only the violations — rare — are sorted into
// the reported order (DESIGN §33).
package verify

import (
	"cmp"
	"fmt"
	"slices"

	"scalabletcc/internal/mem"
	"scalabletcc/internal/tid"
)

// Words is one side of a Record: word addresses with the version read or
// written, each address at most once. Reads keep first-read order and
// writes the order the commit walked its lines; nothing depends on either
// order. An empty side is nil.
type Words []mem.ReadSample

// Record is one committed transaction's footprint.
type Record struct {
	TID    tid.TID
	Proc   int
	Reads  Words // version observed at first read
	Writes Words // version produced (== TID)
}

// Kind classifies a violation: the three distinct ways a commit log can
// fail the oracle.
type Kind int

// Violation kinds.
const (
	// ReadMismatch: a committed read did not observe the TID-serial value.
	ReadMismatch Kind = iota
	// DuplicateTID: two committed records carry the same TID (the gap-free
	// TID order requires uniqueness; the duplicate record is not replayed).
	DuplicateTID
	// BadWriteVersion: a write's produced version is not the writer's TID.
	BadWriteVersion
)

func (k Kind) String() string {
	switch k {
	case ReadMismatch:
		return "read-mismatch"
	case DuplicateTID:
		return "duplicate-TID"
	case BadWriteVersion:
		return "bad-write-version"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Violation describes one serializability failure. Addr is meaningful for
// ReadMismatch and BadWriteVersion; a DuplicateTID violation is about the
// record as a whole, not any address.
type Violation struct {
	Kind     Kind
	TID      tid.TID
	Proc     int
	Addr     mem.Addr
	Observed mem.Version
	Expected mem.Version
}

func (v Violation) Error() string {
	switch v.Kind {
	case DuplicateTID:
		return fmt.Sprintf("verify: duplicate TID %d (second record from proc %d)", v.TID, v.Proc)
	case BadWriteVersion:
		return fmt.Sprintf("verify: T%d (proc %d) wrote %#x with version %d, a write must carry its own TID %d",
			v.TID, v.Proc, v.Addr, v.Observed, v.Expected)
	}
	return fmt.Sprintf("verify: T%d (proc %d) read %#x as version %d, TID-serial order requires %d",
		v.TID, v.Proc, v.Addr, v.Observed, v.Expected)
}

// Check replays records in TID order and returns every serializability
// violation found (nil means the execution was serializable). It also
// verifies that TIDs are unique — including the degenerate TID 0, which the
// vendor never issues but a corrupted log could carry — and that every write
// carries its own TID as the produced version. Of records sharing a TID, the
// first in input order is replayed and each later one is a DuplicateTID
// violation. Violations are reported in a deterministic order: records by
// TID, then a record's reads before its writes, each by ascending address.
func Check(records []Record) []Violation {
	sorted := inTIDOrder(records)
	var out []Violation
	var m ideal
	m.reserve(sorted)
	for i := range sorted {
		r := &sorted[i]
		if i > 0 && r.TID == sorted[i-1].TID {
			out = append(out, Violation{Kind: DuplicateTID, TID: r.TID, Proc: r.Proc})
			continue
		}
		start := len(out)
		for _, s := range r.Reads {
			if expected := m.get(s.Addr); s.Version != expected {
				out = append(out, Violation{
					Kind: ReadMismatch, TID: r.TID, Proc: r.Proc, Addr: s.Addr,
					Observed: s.Version, Expected: expected,
				})
			}
		}
		byAddr(out[start:])
		start = len(out)
		for _, s := range r.Writes {
			if s.Version != mem.Version(r.TID) {
				out = append(out, Violation{Kind: BadWriteVersion, TID: r.TID, Proc: r.Proc, Addr: s.Addr,
					Observed: s.Version, Expected: mem.Version(r.TID)})
				continue
			}
			m.set(s.Addr, s.Version)
		}
		byAddr(out[start:])
	}
	return out
}

// FinalMemory returns the word versions the TID-serial execution leaves
// behind, address-ascending, for comparing against the simulator's memory +
// owned lines. Like Check, it replays only the first record of a duplicated
// TID.
func FinalMemory(records []Record) Words {
	sorted := inTIDOrder(records)
	var m ideal
	m.reserve(sorted)
	for i := range sorted {
		if i > 0 && sorted[i].TID == sorted[i-1].TID {
			continue
		}
		for _, s := range sorted[i].Writes {
			m.set(s.Addr, s.Version)
		}
	}
	slices.SortFunc(m.words, func(a, b mem.ReadSample) int { return cmp.Compare(a.Addr, b.Addr) })
	return m.words
}

// inTIDOrder returns records ordered by TID, stable among equal TIDs. A log
// whose TIDs already strictly increase is returned as is, uncopied.
func inTIDOrder(records []Record) []Record {
	for i := 1; i < len(records); i++ {
		if records[i].TID <= records[i-1].TID {
			sorted := slices.Clone(records)
			slices.SortStableFunc(sorted, func(a, b Record) int { return cmp.Compare(a.TID, b.TID) })
			return sorted
		}
	}
	return records
}

// byAddr sorts one record side's violations by address; within a side each
// address appears at most once.
func byAddr(v []Violation) {
	if len(v) > 1 {
		slices.SortFunc(v, func(a, b Violation) int { return cmp.Compare(a.Addr, b.Addr) })
	}
}

// ideal is the replay's memory: an open-addressed index from word address
// to its entry in words. A word never written reads as version 0.
type ideal struct {
	idx   mem.AddrIndex
	words Words
}

func (m *ideal) get(a mem.Addr) mem.Version {
	if id, ok := m.idx.Get(a); ok {
		return m.words[id].Version
	}
	return 0
}

func (m *ideal) set(a mem.Addr, v mem.Version) {
	if id, ok := m.idx.Insert(a, int32(len(m.words))); ok {
		m.words[id].Version = v
		return
	}
	m.words = append(m.words, mem.ReadSample{Addr: a, Version: v})
}

// reserve sizes the memory for the records' writes, so the replay never
// grows its table. The count of writes bounds the words replayed; on the
// Table 3 applications 87-100% of logged writes are to distinct words, so
// the bound is near tight where logs are long, and it overshoots only on
// contended logs such as hotspot's (41-67% distinct), which are short.
func (m *ideal) reserve(records []Record) {
	n := 0
	for i := range records {
		n += len(records[i].Writes)
	}
	m.idx.Reserve(n)
	m.words = make(Words, 0, n)
}
