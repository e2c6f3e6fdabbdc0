package verify

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"scalabletcc/internal/mem"
	"scalabletcc/internal/tid"
)

func at(a mem.Addr, v mem.Version) mem.ReadSample { return mem.ReadSample{Addr: a, Version: v} }

// lookup returns the version w holds for a and whether a is in w.
func lookup(w Words, a mem.Addr) (mem.Version, bool) {
	for _, s := range w {
		if s.Addr == a {
			return s.Version, true
		}
	}
	return 0, false
}

func rec(t tid.TID, reads Words, writes []mem.Addr) Record {
	var ws Words
	for _, a := range writes {
		ws = append(ws, at(a, mem.Version(t)))
	}
	return Record{TID: t, Reads: reads, Writes: ws}
}

func TestCheckCleanHistory(t *testing.T) {
	recs := []Record{
		rec(1, nil, []mem.Addr{0x10}),
		rec(2, Words{at(0x10, 1)}, []mem.Addr{0x20}),
		rec(3, Words{at(0x10, 1), at(0x20, 2)}, []mem.Addr{0x10}),
	}
	if v := Check(recs); len(v) != 0 {
		t.Fatalf("clean history flagged: %v", v)
	}
}

func TestCheckOutOfOrderInput(t *testing.T) {
	// Records arrive in commit-time order, not TID order; Check must sort.
	recs := []Record{
		rec(3, Words{at(0x10, 1)}, nil),
		rec(1, nil, []mem.Addr{0x10}),
	}
	if v := Check(recs); len(v) != 0 {
		t.Fatalf("sorted replay failed: %v", v)
	}
}

func TestCheckStaleRead(t *testing.T) {
	recs := []Record{
		rec(1, nil, []mem.Addr{0x10}),
		rec(2, Words{at(0x10, 0)}, nil), // read initial, should see T1
	}
	v := Check(recs)
	if len(v) != 1 {
		t.Fatalf("expected one violation, got %v", v)
	}
	if v[0].TID != 2 || v[0].Addr != 0x10 || v[0].Expected != 1 || v[0].Observed != 0 {
		t.Fatalf("violation detail wrong: %+v", v[0])
	}
	if v[0].Error() == "" {
		t.Fatal("empty error text")
	}
}

func TestCheckLostUpdateVisible(t *testing.T) {
	// T3 reads T1's value even though T2 wrote in between: stale.
	recs := []Record{
		rec(1, nil, []mem.Addr{0x40}),
		rec(2, nil, []mem.Addr{0x40}),
		rec(3, Words{at(0x40, 1)}, nil),
	}
	if v := Check(recs); len(v) != 1 {
		t.Fatalf("lost update not detected: %v", v)
	}
}

func TestCheckDuplicateTID(t *testing.T) {
	recs := []Record{
		rec(5, nil, []mem.Addr{0x10}),
		rec(5, nil, []mem.Addr{0x20}),
	}
	v := Check(recs)
	if len(v) != 1 {
		t.Fatalf("duplicate TID: want 1 violation, got %v", v)
	}
	if v[0].Kind != DuplicateTID || v[0].TID != 5 {
		t.Fatalf("violation detail wrong: %+v", v[0])
	}
	if v[0].Error() == "" {
		t.Fatal("empty error text")
	}
}

// Regression: Check and FinalMemory sorted with an unstable sort, so which
// record of a duplicated TID was replayed — and which one the violation
// named — depended on the log's length and order. The first record in input
// order is replayed; every later one is the duplicate.
func TestCheckDuplicateNamesLaterRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		// TIDs 1..40 plus a second record of TID 20, shuffled; Proc is the
		// input position.
		tids := make([]tid.TID, 0, 41)
		for i := 1; i <= 40; i++ {
			tids = append(tids, tid.TID(i))
		}
		tids = append(tids, 20)
		rng.Shuffle(len(tids), func(i, j int) { tids[i], tids[j] = tids[j], tids[i] })
		recs := make([]Record, len(tids))
		var first, second = -1, -1
		for i, x := range tids {
			recs[i] = rec(x, nil, []mem.Addr{mem.Addr(x) * 8})
			recs[i].Proc = i
			if x == 20 {
				if first < 0 {
					first = i
				} else {
					second = i
				}
				// Each TID-20 record writes its own word, so final memory
				// shows which one was replayed.
				recs[i].Writes = Words{at(mem.Addr(0x1000+8*i), 20)}
			}
		}
		v := Check(recs)
		if len(v) != 1 || v[0].Kind != DuplicateTID || v[0].Proc != second {
			t.Fatalf("trial %d: want one duplicate-TID naming proc %d (the later record), got %+v", trial, second, v)
		}
		fm := FinalMemory(recs)
		if _, ok := lookup(fm, mem.Addr(0x1000+8*first)); !ok {
			t.Fatalf("trial %d: final memory lacks the first TID-20 record's write", trial)
		}
		if _, ok := lookup(fm, mem.Addr(0x1000+8*second)); ok {
			t.Fatalf("trial %d: final memory replayed the duplicate record", trial)
		}
	}
}

// Regression: the old guard compared against a zero-initialized prev TID and
// exempted TID 0, so two TID-0 records (a corrupted log) passed silently.
func TestCheckDuplicateTIDZero(t *testing.T) {
	recs := []Record{
		rec(0, nil, []mem.Addr{0x10}),
		rec(0, nil, []mem.Addr{0x20}),
	}
	var dups int
	for _, v := range Check(recs) {
		if v.Kind == DuplicateTID {
			dups++
			if v.TID != 0 {
				t.Fatalf("duplicate flagged with wrong TID: %+v", v)
			}
		}
	}
	if dups != 1 {
		t.Fatalf("two TID-0 records: want 1 duplicate-TID violation, got %d", dups)
	}
}

// A single TID-0 record must not be flagged as a duplicate of the oracle's
// initial state.
func TestCheckSingleZeroTIDNotDuplicate(t *testing.T) {
	for _, v := range Check([]Record{rec(0, nil, nil)}) {
		if v.Kind == DuplicateTID {
			t.Fatalf("lone TID-0 record flagged as duplicate: %+v", v)
		}
	}
}

func TestCheckWrongWriteVersion(t *testing.T) {
	r := Record{TID: 4, Writes: Words{at(0x10, 9)}}
	v := Check([]Record{r})
	if len(v) != 1 {
		t.Fatalf("write version != TID: want 1 violation, got %v", v)
	}
	if v[0].Kind != BadWriteVersion || v[0].Addr != 0x10 || v[0].Observed != 9 || v[0].Expected != 4 {
		t.Fatalf("violation detail wrong: %+v", v[0])
	}
}

// Kinds are distinguishable: a duplicate record at address 0 is not confused
// with a genuine read mismatch at address 0.
func TestCheckKindsDistinguishAddrZero(t *testing.T) {
	recs := []Record{
		rec(1, nil, []mem.Addr{0}),
		rec(2, Words{at(0, 0)}, nil), // stale read of addr 0
		rec(2, nil, nil),             // duplicate TID
	}
	v := Check(recs)
	if len(v) != 2 {
		t.Fatalf("want 2 violations, got %v", v)
	}
	kinds := map[Kind]bool{}
	for _, x := range v {
		kinds[x.Kind] = true
	}
	if !kinds[ReadMismatch] || !kinds[DuplicateTID] {
		t.Fatalf("kinds not distinguished: %v", v)
	}
}

func TestCheckReadMismatchKind(t *testing.T) {
	recs := []Record{
		rec(1, nil, []mem.Addr{0x10}),
		rec(2, Words{at(0x10, 0)}, nil),
	}
	v := Check(recs)
	if len(v) != 1 || v[0].Kind != ReadMismatch {
		t.Fatalf("want one read-mismatch, got %v", v)
	}
	if v[0].Kind.String() != "read-mismatch" {
		t.Fatalf("Kind.String: %q", v[0].Kind)
	}
}

// Violations come out by record, reads before writes, then by address,
// whatever order a record lists its words in.
func TestCheckDeterministicOrder(t *testing.T) {
	recs := []Record{
		rec(1, nil, []mem.Addr{0x10, 0x20, 0x30}),
		{TID: 2, Reads: Words{at(0x30, 7), at(0x10, 7), at(0x20, 7)}, Writes: Words{at(0x50, 9), at(0x40, 9)}},
	}
	got := Check(recs)
	want := []mem.Addr{0x10, 0x20, 0x30, 0x40, 0x50}
	if len(got) != len(want) {
		t.Fatalf("want %d violations, got %+v", len(want), got)
	}
	for i, v := range got {
		if v.Addr != want[i] {
			t.Fatalf("violation %d at %#x, want %#x: %+v", i, v.Addr, want[i], got)
		}
	}
	if got[2].Kind != ReadMismatch || got[3].Kind != BadWriteVersion {
		t.Fatalf("reads must precede writes: %+v", got)
	}
}

func TestFinalMemory(t *testing.T) {
	recs := []Record{
		rec(2, nil, []mem.Addr{0x20, 0x10}),
		rec(1, nil, []mem.Addr{0x10, 0x30}),
	}
	want := Words{at(0x10, 2), at(0x20, 2), at(0x30, 1)}
	if fm := FinalMemory(recs); !slices.Equal(fm, want) {
		t.Fatalf("final memory %v, want %v (address-ascending)", fm, want)
	}
}

// Property: replaying a history generated faithfully from the TID-serial
// semantics never produces violations, while corrupting one read always
// does.
func TestCheckGeneratedHistoryProperty(t *testing.T) {
	f := func(ops []uint16, corrupt bool) bool {
		ideal := map[mem.Addr]mem.Version{}
		var recs []Record
		next := tid.TID(1)
		for _, op := range ops {
			a := mem.Addr(op%16) * 4
			r := rec(next, Words{at(a, ideal[a])}, []mem.Addr{a})
			ideal[a] = mem.Version(next)
			recs = append(recs, r)
			next++
		}
		if len(recs) == 0 {
			return true
		}
		if len(Check(recs)) != 0 {
			return false
		}
		if corrupt {
			last := recs[len(recs)-1].Reads
			for i := range last {
				last[i].Version += 1000
			}
			if len(Check(recs)) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// mapRecord is a record in the form it had before its sides became flat
// slices: one map per side.
type mapRecord struct {
	TID    tid.TID
	Proc   int
	Reads  map[mem.Addr]mem.Version
	Writes map[mem.Addr]mem.Version
}

func toMap(w Words) map[mem.Addr]mem.Version {
	m := make(map[mem.Addr]mem.Version, len(w))
	for _, s := range w {
		m[s.Addr] = s.Version
	}
	return m
}

func toMapRecords(records []Record) []mapRecord {
	out := make([]mapRecord, len(records))
	for i, r := range records {
		out[i] = mapRecord{TID: r.TID, Proc: r.Proc, Reads: toMap(r.Reads), Writes: toMap(r.Writes)}
	}
	return out
}

func sortedAddrs(m map[mem.Addr]mem.Version) []mem.Addr {
	addrs := make([]mem.Addr, 0, len(m))
	for a := range m {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return addrs
}

// refCheck is the map-based Check the flat replay replaced, kept as the
// differential oracle: it sorts each record's addresses and looks them up in
// a map. Its only change is the stable record sort.
func refCheck(records []mapRecord) []Violation {
	sorted := append([]mapRecord(nil), records...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].TID < sorted[j].TID })

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
		for _, a := range sortedAddrs(r.Reads) {
			if observed, expected := r.Reads[a], ideal[a]; observed != expected {
				out = append(out, Violation{
					Kind: ReadMismatch, TID: r.TID, Proc: r.Proc, Addr: a,
					Observed: observed, Expected: expected,
				})
			}
		}
		for _, a := range sortedAddrs(r.Writes) {
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

// refFinalMemory is the map-based FinalMemory, with the stable record sort
// and, as in Check, a duplicated TID's later records skipped.
func refFinalMemory(records []mapRecord) map[mem.Addr]mem.Version {
	sorted := append([]mapRecord(nil), records...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].TID < sorted[j].TID })
	ideal := make(map[mem.Addr]mem.Version)
	for i, r := range sorted {
		if i > 0 && r.TID == sorted[i-1].TID {
			continue
		}
		for a, v := range r.Writes {
			ideal[a] = v
		}
	}
	return ideal
}

// decodeLog turns fuzz bytes into a commit log of at most 64 records. A
// record is three header bytes — TID (mod 32), proc, and the read and write
// counts in the low and high nibble (each mod 5) — then one byte pair per
// word: address (mod 16, times 8) and version. A read's version is the byte
// mod 32; a write's is the record's TID when the byte is even, else the byte
// halved mod 32. A word whose address is already on its side is dropped.
func decodeLog(data []byte) []Record {
	var recs []Record
	for len(data) >= 3 && len(recs) < 64 {
		r := Record{TID: tid.TID(data[0] % 32), Proc: int(data[1])}
		nr, nw := int(data[2]&0xF)%5, int(data[2]>>4)%5
		data = data[3:]
		for i := 0; i < nr+nw && len(data) >= 2; i++ {
			a, b := mem.Addr(data[0]%16)*8, data[1]
			data = data[2:]
			if i < nr {
				if _, dup := lookup(r.Reads, a); !dup {
					r.Reads = append(r.Reads, at(a, mem.Version(b%32)))
				}
				continue
			}
			v := mem.Version(r.TID)
			if b%2 == 1 {
				v = mem.Version(b/2) % 32
			}
			if _, dup := lookup(r.Writes, a); !dup {
				r.Writes = append(r.Writes, at(a, v))
			}
		}
		recs = append(recs, r)
	}
	return recs
}

// FuzzVerify: the flat Check and FinalMemory agree with the map-based
// implementation on every log — the same violations in the same order, and
// the same final memory, address-ascending.
func FuzzVerify(f *testing.F) {
	f.Add([]byte{3, 0, 0x01, 2, 1, 1, 1, 0x10, 2, 0})                   // out-of-order TIDs
	f.Add([]byte{5, 0, 0x10, 1, 0, 5, 1, 0x10, 2, 0, 5, 2, 0x01, 1, 5}) // duplicate TIDs
	f.Add([]byte{0, 0, 0x10, 1, 0, 0, 1, 0x00, 1, 2, 0x01, 1, 0})       // TID 0
	f.Add([]byte{4, 0, 0x20, 1, 19, 2, 0})                              // bad write versions
	f.Add([]byte{1, 0, 0x10, 1, 0, 2, 1, 0x03, 1, 0, 2, 1, 3, 4})       // stale reads
	f.Add([]byte{7, 0, 0x00, 8, 1, 0x00, 9, 2, 0x10, 3, 0})             // empty read and write sets
	f.Fuzz(func(t *testing.T, data []byte) {
		recs := decodeLog(data)
		old := toMapRecords(recs)
		if got, want := Check(recs), refCheck(old); !slices.Equal(got, want) {
			t.Fatalf("Check:\n got  %+v\n want %+v", got, want)
		}
		fm, want := FinalMemory(recs), refFinalMemory(old)
		if len(fm) != len(want) {
			t.Fatalf("FinalMemory has %d words, want %d: %v vs %v", len(fm), len(want), fm, want)
		}
		for i, w := range fm {
			if i > 0 && fm[i-1].Addr >= w.Addr {
				t.Fatalf("FinalMemory not address-ascending: %v", fm)
			}
			if v, ok := want[w.Addr]; !ok || v != w.Version {
				t.Fatalf("FinalMemory %#x = %d, want %d (present %v)", w.Addr, w.Version, v, ok)
			}
		}
	})
}
