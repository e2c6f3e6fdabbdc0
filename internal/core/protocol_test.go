package core

import (
	"testing"

	"scalabletcc/internal/mem"
	"scalabletcc/internal/tid"
	"scalabletcc/internal/verify"
	"scalabletcc/internal/workload"
)

// scriptProgram runs hand-written per-processor transaction scripts so
// directed protocol scenarios (the paper's Figure 2 and Figure 3
// walkthroughs) can be encoded as tests.
type scriptProgram struct {
	name string
	// txs[proc] is that processor's transaction list (one phase).
	txs    [][]workload.Tx
	homing map[mem.Addr]int // page address -> home node
}

func (s *scriptProgram) Name() string                { return s.name }
func (s *scriptProgram) Procs() int                  { return len(s.txs) }
func (s *scriptProgram) Phases() int                 { return 1 }
func (s *scriptProgram) TxCount(proc, phase int) int { return len(s.txs[proc]) }
func (s *scriptProgram) Tx(proc, phase, idx int) workload.Tx {
	return s.txs[proc][idx]
}
func (s *scriptProgram) PreMap(m *mem.Map) {
	for page, node := range s.homing {
		m.Home(page, node)
	}
}

// delayed returns a transaction that computes for d cycles first, to order
// scripted transactions in time.
func delayed(d uint32, ops ...workload.Op) workload.Tx {
	all := append([]workload.Op{{Kind: workload.Compute, Cycles: d}}, ops...)
	return workload.Tx{Ops: all}
}

func ld(a mem.Addr) workload.Op { return workload.Op{Kind: workload.Load, Addr: a} }
func st(a mem.Addr) workload.Op { return workload.Op{Kind: workload.Store, Addr: a} }

// lookup returns the version a commit-log side holds for a and whether a is
// in it.
func lookup(w verify.Words, a mem.Addr) (mem.Version, bool) {
	for _, s := range w {
		if s.Addr == a {
			return s.Version, true
		}
	}
	return 0, false
}

func runScript(t *testing.T, s *scriptProgram, mutate func(*Config)) (*System, *Results) {
	t.Helper()
	cfg := DefaultConfig(len(s.txs))
	cfg.MaxCycles = 10_000_000
	if mutate != nil {
		mutate(&cfg)
	}
	sys, err := NewSystem(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	sys.CollectCommitLog(true)
	sys.EnableAuditor()
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return sys, res
}

// Addresses homed at distinct nodes for scripted scenarios.
const (
	addrD0 mem.Addr = 0x10000 // homed at node 0
	addrD1 mem.Addr = 0x20000 // homed at node 1
	addrD2 mem.Addr = 0x30000 // homed at node 2
)

func homing3() map[mem.Addr]int {
	return map[mem.Addr]int{addrD0: 0, addrD1: 1, addrD2: 2}
}

// TestFigure2Scenario encodes the paper's Figure 2 walkthrough: P1 loads
// from two directories and commits a write; P2 has speculatively read the
// written line, violates, re-executes, and re-reads the committed value via
// the owner write-back path.
func TestFigure2Scenario(t *testing.T) {
	// P1 (proc 0): reads addrD0 and addrD1, writes addrD1, commits first.
	// P2 (proc 1): reads addrD1 early, computes for a long time, then writes
	// addrD2 — it must violate when P1 commits, re-execute, and observe
	// P1's value.
	s := &scriptProgram{
		name: "figure2",
		txs: [][]workload.Tx{
			{delayed(10, ld(addrD0), ld(addrD1), st(addrD1))},
			{delayed(1, ld(addrD1), workload.Op{Kind: workload.Compute, Cycles: 4000}, st(addrD2))},
		},
		homing: homing3(),
	}
	// A 3-node machine so all three homes are distinct.
	s.txs = append(s.txs, []workload.Tx{delayed(1)})
	sys, res := runScript(t, s, nil)

	if res.Violations == 0 {
		t.Fatal("P2 never violated despite reading P1's write-set")
	}
	if res.Commits != 3 {
		t.Fatalf("commits = %d, want 3", res.Commits)
	}
	// P2's committed read of addrD1 must observe P1's version.
	var p1TID, p2Read mem.Version
	for _, r := range res.CommitLog {
		if v, ok := lookup(r.Writes, addrD1); ok {
			p1TID = v
		}
	}
	for _, r := range res.CommitLog {
		if r.Proc == 1 {
			p2Read, _ = lookup(r.Reads, addrD1)
		}
	}
	if p1TID == 0 || p2Read != p1TID {
		t.Fatalf("P2 read version %d of addrD1, want P1's committed version %d", p2Read, p1TID)
	}
	// The committer became the owner; P2's re-read forwarded through it.
	if res.Forwards == 0 {
		t.Fatal("no owner forward occurred; write-back protocol not exercised")
	}
	_ = sys
}

// TestFigure3ParallelCommit encodes Figure 3's top scenario: two
// transactions with disjoint directory footprints commit fully in parallel.
func TestFigure3ParallelCommit(t *testing.T) {
	s := &scriptProgram{
		name: "figure3-parallel",
		txs: [][]workload.Tx{
			{delayed(10, ld(addrD0), st(addrD0))},
			{delayed(10, ld(addrD1), st(addrD1))},
		},
		homing: homing3(),
	}
	_, res := runScript(t, s, nil)
	if res.Violations != 0 {
		t.Fatalf("disjoint transactions violated: %d", res.Violations)
	}
	if res.Commits != 2 {
		t.Fatalf("commits = %d", res.Commits)
	}
}

// TestFigure3ConflictingCommit encodes Figure 3's bottom scenario: the
// transaction with the higher TID has read what the lower one commits, so
// it must abort (send Abort, clearing its marks) and re-execute.
func TestFigure3ConflictingCommit(t *testing.T) {
	s := &scriptProgram{
		name: "figure3-conflict",
		txs: [][]workload.Tx{
			// P0 writes addrD0 and commits quickly.
			{delayed(10, ld(addrD0), st(addrD0))},
			// P1 reads addrD0 early, then takes long enough that P0's TID is
			// lower, and writes addrD1.
			{delayed(1, ld(addrD0), workload.Op{Kind: workload.Compute, Cycles: 5000}, st(addrD1))},
		},
		homing: homing3(),
	}
	sys, res := runScript(t, s, nil)
	if res.Violations == 0 {
		t.Fatal("conflicting pair committed without violation")
	}
	if res.Commits != 2 {
		t.Fatalf("commits = %d", res.Commits)
	}
	d := sys.Directory(0)
	if d.Stats().AbortsProcessed == 0 && res.Violations > 0 {
		// The violated transaction may or may not have marked yet; at least
		// the violation must have been recorded.
		t.Log("violation occurred before marking (no abort message needed)")
	}
}

// TestWriteWriteSerialization: two transactions write the same line with no
// reads; neither violates (write-write is serialized by the directory, not
// a conflict), and the final memory state is the higher TID's data.
func TestWriteWriteSerialization(t *testing.T) {
	s := &scriptProgram{
		name: "write-write",
		txs: [][]workload.Tx{
			{delayed(10, st(addrD0))},
			{delayed(12, st(addrD0))},
		},
		homing: homing3(),
	}
	_, res := runScript(t, s, nil)
	if res.Violations != 0 {
		t.Fatalf("write-write conflict caused %d violations; the protocol serializes them", res.Violations)
	}
	if res.Commits != 2 {
		t.Fatalf("commits = %d", res.Commits)
	}
}

// TestWordDisjointNoFalseSharing: with word-level tracking, a reader of
// word 0 must not violate when word 1 of the same line is committed.
func TestWordDisjointNoFalseSharing(t *testing.T) {
	s := &scriptProgram{
		name: "word-disjoint",
		txs: [][]workload.Tx{
			{delayed(10, st(addrD0+4))}, // writes word 1
			{delayed(1, ld(addrD0), workload.Op{Kind: workload.Compute, Cycles: 5000})}, // reads word 0
		},
		homing: homing3(),
	}
	_, res := runScript(t, s, nil)
	if res.Violations != 0 {
		t.Fatalf("false-sharing violation under word-level tracking: %d", res.Violations)
	}
}

// TestLineGranularityFalseSharing: the same scenario under line-level
// tracking must violate.
func TestLineGranularityFalseSharing(t *testing.T) {
	s := &scriptProgram{
		name: "line-false-sharing",
		txs: [][]workload.Tx{
			{delayed(10, st(addrD0+4))},
			{delayed(1, ld(addrD0), workload.Op{Kind: workload.Compute, Cycles: 5000})},
		},
		homing: homing3(),
	}
	_, res := runScript(t, s, func(c *Config) { c.LineGranularity = true })
	if res.Violations == 0 {
		t.Fatal("line-level tracking did not produce the false-sharing violation")
	}
}

// TestDirtyBitWriteBack: committing a line then speculatively rewriting it
// must write the committed data back to memory first (the §3.1 dirty-bit
// rule), so an abort of the second transaction cannot lose the first's data.
func TestDirtyBitWriteBack(t *testing.T) {
	s := &scriptProgram{
		name: "dirty-rule",
		txs: [][]workload.Tx{
			{
				delayed(10, st(addrD0)),
				delayed(10, st(addrD0)), // same line again: triggers the rule
			},
		},
		homing: map[mem.Addr]int{addrD0: 0},
	}
	sys, res := runScript(t, s, nil)
	if res.Commits != 2 {
		t.Fatalf("commits = %d", res.Commits)
	}
	if sys.Directory(0).Stats().WriteBacks == 0 {
		t.Fatal("dirty-bit rule produced no write-back")
	}
	// Memory must hold the second transaction's version.
	g := sys.cfg.Geometry
	d := sys.Directory(0)
	id, ok := d.lines.Lookup(g.Line(addrD0))
	if !ok {
		t.Fatal("directory 0 has no entry for the written line")
	}
	line := d.memLine(id)
	w := g.WordIndex(addrD0)
	// The line is still owned by the committer; memory has at least the
	// first version from the dirty-rule write-back.
	if line[w] == 0 {
		t.Fatal("memory never received the first commit's data")
	}
}

// TestSkipVectorAdvance: a directory must advance its NSTID past skipped
// TIDs even when skips arrive out of order (Figure 5).
func TestSkipVectorAdvance(t *testing.T) {
	s := &scriptProgram{
		name: "skips",
		txs: [][]workload.Tx{
			{delayed(10, st(addrD0)), delayed(10, st(addrD0))},
			{delayed(5, st(addrD1)), delayed(5, st(addrD1))},
			{delayed(7, st(addrD2)), delayed(7, st(addrD2))},
		},
		homing: homing3(),
	}
	sys, res := runScript(t, s, nil)
	if res.Commits != 6 {
		t.Fatalf("commits = %d", res.Commits)
	}
	// Every directory must have accounted every TID: NSTID == 7 everywhere.
	for i := 0; i < 3; i++ {
		if nstid := sys.Directory(i).NSTID(); nstid != tid.TID(7) {
			t.Fatalf("dir %d NSTID = %d, want 7", i, nstid)
		}
		if sys.Directory(i).Stats().SkipsProcessed == 0 {
			t.Fatalf("dir %d processed no skips", i)
		}
	}
}

// TestLoadStallsOnMarkedLine: a load to a line marked by an in-flight commit
// must stall at the directory until the commit completes, and then observe
// the committed value.
func TestLoadStallsOnMarkedLine(t *testing.T) {
	s := &scriptProgram{
		name: "marked-stall",
		txs: [][]workload.Tx{
			{delayed(10, st(addrD0))},
			// P1 loads the same line around P0's commit time.
			{delayed(160, ld(addrD0), workload.Op{Kind: workload.Compute, Cycles: 10})},
		},
		homing: homing3(),
	}
	sys, res := runScript(t, s, nil)
	if res.Commits != 2 {
		t.Fatalf("commits = %d", res.Commits)
	}
	_ = sys
	// Whether the load hit the marked window is timing-dependent; the
	// invariant that matters is serializability, checked by runScript's
	// oracle in the stress tests. Here we just require both commits.
}
