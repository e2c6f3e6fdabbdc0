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
package verify

import (
	"fmt"
	"sort"

	"scalabletcc/internal/mem"
	"scalabletcc/internal/tid"
)

// Record is one committed transaction's footprint.
type Record struct {
	TID    tid.TID
	Proc   int
	Reads  map[mem.Addr]mem.Version // word addr -> version observed at first read
	Writes map[mem.Addr]mem.Version // word addr -> version produced (== TID)
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
// carries its own TID as the produced version. Violations are reported in a
// deterministic order (records by TID, addresses ascending within a record).
func Check(records []Record) []Violation {
	sorted := append([]Record(nil), records...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].TID < sorted[j].TID })

	var out []Violation
	ideal := make(map[mem.Addr]mem.Version)
	var prev tid.TID
	seen := false
	for _, r := range sorted {
		if seen && r.TID == prev {
			out = append(out, Violation{Kind: DuplicateTID, TID: r.TID, Proc: r.Proc})
			continue
		}
		seen, prev = true, r.TID
		for _, a := range SortedAddrs(r.Reads) {
			if observed, expected := r.Reads[a], ideal[a]; observed != expected {
				out = append(out, Violation{
					Kind: ReadMismatch, TID: r.TID, Proc: r.Proc, Addr: a,
					Observed: observed, Expected: expected,
				})
			}
		}
		for _, a := range SortedAddrs(r.Writes) {
			v := r.Writes[a]
			if v != mem.Version(r.TID) {
				out = append(out, Violation{Kind: BadWriteVersion, TID: r.TID, Proc: r.Proc, Addr: a,
					Observed: v, Expected: mem.Version(r.TID)})
				continue
			}
			ideal[a] = v
		}
	}
	return out
}

// SortedAddrs returns m's keys ascending, so replay output and audits are
// deterministic.
func SortedAddrs(m map[mem.Addr]mem.Version) []mem.Addr {
	if len(m) == 0 {
		return nil
	}
	addrs := make([]mem.Addr, 0, len(m))
	for a := range m {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return addrs
}

// FinalMemory returns the word versions the TID-serial execution leaves
// behind, for comparing against the simulator's memory + owned lines.
func FinalMemory(records []Record) map[mem.Addr]mem.Version {
	sorted := append([]Record(nil), records...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].TID < sorted[j].TID })
	ideal := make(map[mem.Addr]mem.Version)
	for _, r := range sorted {
		for a, v := range r.Writes {
			ideal[a] = v
		}
	}
	return ideal
}
