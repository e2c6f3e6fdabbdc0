package core

import (
	"fmt"

	"scalabletcc/internal/cache"
	"scalabletcc/internal/mem"
	"scalabletcc/internal/sim"
	"scalabletcc/internal/tid"
)

// Continuous invariant auditing.
//
// The serializability oracle (verify.Check) and the final-memory audit run
// after a simulation completes, so a protocol bug that corrupts directory or
// cache state mid-run surfaces as a distant panic — or not at all. The
// Auditor closes that gap: cheap hooks at the protocol's state-transition
// points re-check the structural invariants continuously, and Run fails at
// the first violated one, within a cycle of the corruption.
//
// Every hook site is gated on a nil check of System.aud (the same idiom the
// observer uses), so a machine without an auditor pays one pointer compare
// per site and allocates nothing.

// AuditError is one violated protocol invariant, caught in flight.
type AuditError struct {
	Cycle     sim.Time
	Node      int    // directory/processor the check ran at; -1 system-wide
	Invariant string // stable machine-matchable name, e.g. "skip-vector-bounds"
	Detail    string
}

func (e *AuditError) Error() string {
	return fmt.Sprintf("audit: cycle %d node %d: invariant %s violated: %s",
		e.Cycle, e.Node, e.Invariant, e.Detail)
}

// Auditor holds the incremental state the continuous checks compare against.
type Auditor struct {
	sys    *System
	err    *AuditError
	checks uint64

	lastNSTID []tid.TID // per directory, for the monotonicity check

	// Message-slab and line-buffer pool accounting. msgBusy[i] mirrors
	// whether slab record i is allocated; the counters reconcile to zero at
	// end of run (every message freed, every buffer returned).
	msgBusy []bool
	msgLive int
	bufLive int

	seen map[mem.Addr]bool // onCommitPoint's scratch set of sampled words
}

func newAuditor(s *System) *Auditor {
	return &Auditor{sys: s, lastNSTID: make([]tid.TID, s.cfg.Procs)}
}

// EnableAuditor attaches a continuous invariant auditor and returns it. Must
// be called before Run; repeated calls return the same auditor. Auditing is
// passive — it never changes simulated behaviour, only fails the run when an
// invariant breaks.
func (s *System) EnableAuditor() *Auditor {
	if s.aud == nil {
		s.aud = newAuditor(s)
	}
	return s.aud
}

// Auditor returns the attached auditor, or nil.
func (s *System) Auditor() *Auditor { return s.aud }

// Err returns the first invariant violation caught, or nil.
func (a *Auditor) Err() *AuditError { return a.err }

// Checks returns how many invariant checks have run (a liveness signal for
// tests: zero means the hooks never fired).
func (a *Auditor) Checks() uint64 { return a.checks }

// fail records the first violation; later ones are dropped (the first is the
// root cause, everything after may be fallout).
func (a *Auditor) fail(node int, invariant, format string, args ...any) {
	if a.err != nil {
		return
	}
	a.err = &AuditError{
		Cycle:     a.sys.kernel.Now(),
		Node:      node,
		Invariant: invariant,
		Detail:    fmt.Sprintf(format, args...),
	}
}

// ---------------------------------------------------------------------------
// Directory invariants.

// onDirAccount runs after a directory accounts a TID (noteDone): the NSTID /
// Skip Vector invariants.
func (a *Auditor) onDirAccount(d *Directory) {
	a.checks++
	a.checkDir(d)
	a.lastNSTID[d.node] = d.nstid
}

// onDirExec runs after a directory executes a message's pipeline stage: the
// NSTID invariants plus the touched entry's structural invariants.
func (a *Auditor) onDirExec(d *Directory, m *protoMsg) {
	a.checks++
	a.checkDir(d)
	a.lastNSTID[d.node] = d.nstid
	switch m.kind {
	case MsgMark, MsgLoadReq, MsgFlushResp, MsgFlushNack, MsgWriteBack, MsgFlushInvResp:
		base := a.sys.cfg.Geometry.Line(m.addr)
		// Read the index directly: Directory.entry would charge a
		// directory-cache access and perturb timing.
		if e := d.lookupEntry(base); e != nil {
			a.checkEntry(d, base, e)
		}
	case MsgCommit:
		// The commit mutated every previously-marked line; sweep the ones we
		// can still name (answers arrive per line via the cases above).
		for id, base := range d.lines.Bases() {
			e := d.entryAt(int32(id))
			if e.marked || e.owner >= 0 {
				a.checkEntry(d, base, e)
			}
			if a.err != nil {
				return
			}
		}
	}
}

// checkDir verifies the directory-level TID-accounting invariants:
//
//   - NSTID is monotone non-decreasing (the gap-free serial order never
//     rewinds);
//   - the Skip Vector never holds a bit for a TID the vendor has not issued
//     (bit i stands for TID nstid+i);
//   - bit 0 cannot linger outside a busy commit — tryAdvance must have
//     shifted it out;
//   - while a commit is in flight the NSTID is frozen at the committing TID
//     and the outstanding ack/flush counters are sane.
func (a *Auditor) checkDir(d *Directory) {
	if d.nstid < a.lastNSTID[d.node] {
		a.fail(d.node, "nstid-monotone", "NSTID rewound from %d to %d", a.lastNSTID[d.node], d.nstid)
	}
	if hi := d.done.MaxSet(); hi >= 0 {
		if t := uint64(d.nstid) + uint64(hi); t > a.sys.vendor.Issued() {
			a.fail(d.node, "skip-vector-bounds",
				"done bit %d marks TID %d but the vendor has only issued %d", hi, t, a.sys.vendor.Issued())
		}
	}
	if !d.commitBusy && d.done.Has(0) {
		a.fail(d.node, "skip-vector-stuck", "done bit for NSTID %d set but not shifted out", d.nstid)
	}
	if d.commitBusy {
		if d.pendingCommitTID != d.nstid {
			a.fail(d.node, "commit-nstid-frozen",
				"commit of TID %d in flight but NSTID moved to %d", d.pendingCommitTID, d.nstid)
		}
		if d.commitAcks < 0 || d.commitFlushes < 0 {
			a.fail(d.node, "commit-acks", "negative outstanding acks=%d flushes=%d", d.commitAcks, d.commitFlushes)
		}
	}
}

// checkEntry verifies one directory entry's structural invariants: owner in
// range and on the sharers list, owned/marked word masks consistent with the
// commit mode, and the pending-data bookkeeping intact.
func (a *Auditor) checkEntry(d *Directory, base mem.Addr, e *dirEntry) {
	procs := a.sys.cfg.Procs
	if e.owner >= procs {
		a.fail(d.node, "owner-range", "line %#x owner %d out of range (%d procs)", base, e.owner, procs)
	}
	if e.owner >= 0 {
		if !e.sharers.Has(e.owner) {
			a.fail(d.node, "owner-sharer", "line %#x owner %d missing from sharers %v", base, e.owner, e.sharers.String())
		}
		if a.sys.cfg.WriteThroughCommit {
			a.fail(d.node, "wt-owner", "line %#x has owner %d under write-through commit", base, e.owner)
		} else if !e.ownedWords.Any() {
			a.fail(d.node, "owner-words", "line %#x owner %d holds no owned words", base, e.owner)
		}
	}
	if mx := e.sharers.Max(); mx >= procs {
		a.fail(d.node, "sharer-range", "line %#x sharer %d out of range (%d procs)", base, mx, procs)
	}
	if e.marked && !e.markWords.Any() {
		a.fail(d.node, "mark-words", "line %#x marked with empty word mask", base)
	}
	if !e.marked && e.markData != nil {
		a.fail(d.node, "mark-data-leak", "line %#x holds mark data without being marked", base)
	}
	if len(e.pendingFrom) != e.pendingData {
		a.fail(d.node, "pending-count", "line %#x pendingData %d but %d pending nodes", base, e.pendingData, len(e.pendingFrom))
	}
	for i, n := range e.pendingFrom {
		if n < 0 || n >= procs {
			a.fail(d.node, "pending-range", "line %#x pending node %d out of range", base, n)
		}
		for _, m := range e.pendingFrom[:i] {
			if m == n {
				a.fail(d.node, "pending-dup", "line %#x expects data from node %d twice", base, n)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Cache (speculative-line) accounting.

// onTxBoundary runs after a processor finalizes a transaction (commit or
// rollback): the private cache must hold no speculative state and its
// tracking list must be drained.
func (a *Auditor) onTxBoundary(p *Processor) {
	a.checks++
	if err := p.cache.Audit(true); err != nil {
		a.fail(p.id, "cache-state", "%v", err)
	}
	if a.msgLive < 0 || a.bufLive < 0 {
		a.fail(p.id, "pool-counters", "live message count %d, live buffer count %d", a.msgLive, a.bufLive)
	}
}

// onCommitPoint runs at a transaction's commit point, before the cache
// finalizes it: the read set must name each word the cache marks
// speculatively read, across the main array and the overflow area, exactly
// once. finishLoad appends a sample only when it sets a word's SR bit, with
// no lookup of its own, so a dropped or doubled sample shows here.
func (a *Auditor) onCommitPoint(p *Processor) {
	a.checks++
	g := a.sys.cfg.Geometry
	sr := 0
	p.cache.ForEachSpeculative(func(l *cache.Line) { sr += l.SR.Count() })
	samples := p.readSet.Samples()
	if sr != len(samples) {
		a.fail(p.id, "read-set-sr", "%d words carry SR bits but the read set holds %d samples", sr, len(samples))
		return
	}
	if a.seen == nil {
		a.seen = make(map[mem.Addr]bool)
	}
	clear(a.seen)
	for _, s := range samples {
		l := p.cache.Peek(g.Line(s.Addr))
		switch {
		case l == nil || !l.SR.Has(g.WordIndex(s.Addr)):
			a.fail(p.id, "read-set-sr", "read-set word %#x has no SR bit in the cache", s.Addr)
			return
		case a.seen[s.Addr]:
			a.fail(p.id, "read-set-sr", "read-set word %#x sampled twice", s.Addr)
			return
		}
		a.seen[s.Addr] = true
	}
}

// ---------------------------------------------------------------------------
// Message-slab and buffer-pool accounting.

func (a *Auditor) onMsgAlloc(i int32) {
	a.checks++
	for int(i) >= len(a.msgBusy) {
		a.msgBusy = append(a.msgBusy, false)
	}
	if a.msgBusy[i] {
		a.fail(-1, "msg-pool-corrupt", "pool handed out live message record %d", i)
	}
	a.msgBusy[i] = true
	a.msgLive++
}

func (a *Auditor) onMsgFree(i int32) {
	a.checks++
	if int(i) >= len(a.msgBusy) || !a.msgBusy[i] {
		a.fail(-1, "msg-double-free", "free of message record %d not currently allocated", i)
		return
	}
	a.msgBusy[i] = false
	a.msgLive--
}

func (a *Auditor) onBufAcquire() { a.bufLive++ }
func (a *Auditor) onBufRelease() {
	a.bufLive--
	if a.bufLive < 0 {
		a.fail(-1, "buf-double-free", "more line buffers released than acquired")
	}
}

// final reconciles at end of run: every message freed, every pooled buffer
// returned, and every directory's state consistent one last time.
func (a *Auditor) final() *AuditError {
	for _, d := range a.sys.dirs {
		a.checks++
		a.checkDir(d)
		a.lastNSTID[d.node] = d.nstid
		for id, base := range d.lines.Bases() {
			a.checkEntry(d, base, d.entryAt(int32(id)))
			if a.err != nil {
				break
			}
		}
	}
	if a.msgLive != 0 {
		a.fail(-1, "msg-leak", "%d protocol messages never freed", a.msgLive)
	}
	if a.bufLive != 0 {
		a.fail(-1, "buf-leak", "%d line buffers never returned", a.bufLive)
	}
	return a.err
}

// ---------------------------------------------------------------------------
// Fault injection (tests and the fuzzer's self-check).

// faultTIDMargin places an injected Skip-Vector bit far beyond any TID the
// run will issue, so the corruption stays invalid for the rest of the run
// (a bit just past the issued frontier could become retroactively legal).
const faultTIDMargin = 1 << 20

// InjectSkipVectorFault schedules a test-only protocol fault: at cycle at,
// directory dir's Skip Vector gains a done bit for a TID the vendor never
// issued — the kind of single-bit state corruption the continuous auditor
// exists to catch. Call before Run. The run then fails with the
// "skip-vector-bounds" invariant at the next event touching that directory.
func (s *System) InjectSkipVectorFault(at sim.Time, dir int) {
	s.kernel.Post(at, s, sysFault, uint64(dir), 0)
}

// injectSkipVectorFault applies the fault InjectSkipVectorFault scheduled.
func (s *System) injectSkipVectorFault(dir int) {
	d := s.dirs[dir]
	t := s.vendor.Issued() + faultTIDMargin
	if t <= uint64(d.nstid) {
		t = uint64(d.nstid) + faultTIDMargin
	}
	d.done.Set(int(t - uint64(d.nstid)))
}
