package core

import (
	"testing"

	"scalabletcc/internal/mem"
	"scalabletcc/internal/workload"
)

// TestPartialInvalidationMerge: a transaction holding uncommitted words of a
// line keeps them across a non-conflicting invalidation of other words, and
// its own commit publishes exactly its words.
func TestPartialInvalidationMerge(t *testing.T) {
	s := &scriptProgram{
		name: "partial-inv",
		txs: [][]workload.Tx{
			// P0 commits word 0 quickly.
			{delayed(10, st(addrD0))},
			// P1 writes word 4 of the same line (no reads of word 0), taking
			// long enough to receive P0's invalidation mid-transaction.
			{delayed(1, st(addrD0+16), workload.Op{Kind: workload.Compute, Cycles: 5000})},
		},
		homing: homing3(),
	}
	sys, res := runScript(t, s, nil)
	if res.Violations != 0 {
		t.Fatalf("word-disjoint write-write caused %d violations", res.Violations)
	}
	if res.Commits != 2 {
		t.Fatalf("commits = %d", res.Commits)
	}
	// Both committed versions must be visible in the final memory view.
	fm := sys.FinalMemoryView()
	if fm[addrD0] == 0 || fm[addrD0+16] == 0 {
		t.Fatalf("final memory lost a committed word: %v / %v", fm[addrD0], fm[addrD0+16])
	}
	if err := sys.AuditFinalMemory(); err != nil {
		t.Fatal(err)
	}
}

// TestOwnershipTransferChain: three processors successively commit different
// words of one line; every committed word must survive the chain of
// ownership transfers.
func TestOwnershipTransferChain(t *testing.T) {
	s := &scriptProgram{
		name: "transfer-chain",
		txs: [][]workload.Tx{
			{delayed(10, st(addrD0))},
			{delayed(500, st(addrD0+8))},
			{delayed(1500, st(addrD0+16))},
		},
		homing: homing3(),
	}
	sys, res := runScript(t, s, nil)
	if res.Commits != 3 {
		t.Fatalf("commits = %d", res.Commits)
	}
	if err := sys.AuditFinalMemory(); err != nil {
		t.Fatal(err)
	}
	fm := sys.FinalMemoryView()
	for _, a := range []mem.Addr{addrD0, addrD0 + 8, addrD0 + 16} {
		if fm[a] == 0 {
			t.Fatalf("word %#x lost through ownership transfers", a)
		}
	}
}

// TestWriteThroughDirected: in write-through commit mode, data reaches
// memory at commit and no owner forwarding happens on a later read.
func TestWriteThroughDirected(t *testing.T) {
	s := &scriptProgram{
		name: "wt",
		txs: [][]workload.Tx{
			{delayed(10, st(addrD0))},
			{delayed(2000, ld(addrD0), workload.Op{Kind: workload.Compute, Cycles: 10})},
		},
		homing: homing3(),
	}
	sys, res := runScript(t, s, func(c *Config) { c.WriteThroughCommit = true })
	if res.Commits != 2 {
		t.Fatalf("commits = %d", res.Commits)
	}
	if res.Forwards != 0 {
		t.Fatalf("write-through mode forwarded %d loads to owners", res.Forwards)
	}
	// P1 must have read P0's committed version.
	var read mem.Version
	for _, r := range res.CommitLog {
		if r.Proc == 1 {
			read, _ = lookup(r.Reads, addrD0)
		}
	}
	if read == 0 {
		t.Fatal("reader did not observe the write-through commit")
	}
	_ = sys
}

// TestMultiPhaseBarriers: processors with different per-phase transaction
// counts synchronize at every phase boundary.
func TestMultiPhaseBarriers(t *testing.T) {
	prof := workload.Profile{
		Name: "phases", TxInstr: 300, ReadWords: 20, WriteWords: 8,
		DirsSpan: 1, SharedReadFrac: 0.2, SharedWriteFrac: 0.1,
		PrivateWords: 4096, SharedWords: 4096,
		TotalTx: 64, NumPhases: 4, Imbalance: 0.5,
	}
	res := runProfile(t, prof, 4, nil)
	if res.Commits == 0 {
		t.Fatal("no commits")
	}
	// Heavy imbalance across 4 phases must show up as idle time.
	if res.Breakdown[2] == 0 { // Idle
		t.Fatal("no idle time despite imbalanced phases")
	}
}

// TestDirCacheBoundedCore: the directory-cache knob must charge misses and
// slow the run down without changing correctness.
func TestDirCacheBoundedCore(t *testing.T) {
	prof := workload.Equake().Scale(0.03)
	unbounded := runProfile(t, prof, 4, nil)
	bounded := runProfile(t, prof, 4, func(c *Config) { c.DirCacheEntries = 64 })
	if bounded.DirCacheMisses == 0 {
		t.Fatal("64-entry directory cache recorded no misses")
	}
	if unbounded.DirCacheMisses != 0 {
		t.Fatal("unbounded directory cache recorded misses")
	}
	if bounded.Cycles <= unbounded.Cycles {
		t.Fatalf("bounded dir cache not slower: %d vs %d", bounded.Cycles, unbounded.Cycles)
	}
}

// TestSharedReadScaling: a read-only shared line ends up with every
// processor in its sharers list and no violations.
func TestSharedReadScaling(t *testing.T) {
	const procs = 6
	txs := make([][]workload.Tx, procs)
	for p := range txs {
		txs[p] = []workload.Tx{delayed(uint32(1+p), ld(addrD0), workload.Op{Kind: workload.Compute, Cycles: 100})}
	}
	s := &scriptProgram{name: "read-only", txs: txs, homing: homing3()}
	sys, res := runScript(t, s, nil)
	if res.Violations != 0 {
		t.Fatalf("read-only sharing violated %d times", res.Violations)
	}
	e := sys.Directory(0).lookupEntry(sys.cfg.Geometry.Line(addrD0))
	if e.sharers.Count() != procs {
		t.Fatalf("sharers = %d, want %d", e.sharers.Count(), procs)
	}
}

// TestMessageAccounting: the protocol's message counts must satisfy the
// Table 1 flow identities — every commit sends Skips to all non-write-set
// directories, every TID request gets one grant, and invalidations are
// acknowledged one for one.
func TestMessageAccounting(t *testing.T) {
	res := runProfile(t, workload.WaterSpatial().Scale(0.05), 8, nil)
	mc := res.MsgCounts
	if mc[MsgTIDReq] != mc[MsgTIDResp] {
		t.Fatalf("TID requests %d != grants %d", mc[MsgTIDReq], mc[MsgTIDResp])
	}
	if mc[MsgInv] != mc[MsgInvAck] {
		t.Fatalf("invalidations %d != acks %d", mc[MsgInv], mc[MsgInvAck])
	}
	if mc[MsgFlushInv] != mc[MsgFlushInvResp] {
		t.Fatalf("flush-invs %d != responses %d", mc[MsgFlushInv], mc[MsgFlushInvResp])
	}
	if mc[MsgProbe] < mc[MsgProbeResp] {
		t.Fatalf("more probe responses (%d) than probes (%d)", mc[MsgProbeResp], mc[MsgProbe])
	}
	// Every accounted TID (commit or abort) skips the directories it does
	// not write: skips + marks-bearing commits + aborts must cover
	// TIDs × directories.
	perTID := mc[MsgSkip] + mc[MsgCommit] + mc[MsgAbort]
	want := mc[MsgTIDResp] * 8
	if perTID != want {
		t.Fatalf("skip+commit+abort = %d, want TIDs×dirs = %d", perTID, want)
	}
	if mc[MsgFlushReq] != mc[MsgFlushResp]+mc[MsgFlushNack] {
		t.Fatalf("flush requests %d != responses %d + nacks %d",
			mc[MsgFlushReq], mc[MsgFlushResp], mc[MsgFlushNack])
	}
}
