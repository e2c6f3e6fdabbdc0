package tl2

import (
	"scalabletcc/internal/mem"
	"scalabletcc/internal/mesh"
	"scalabletcc/internal/obs"
	"scalabletcc/internal/rival"
	"scalabletcc/internal/sim"
	"scalabletcc/internal/workload"
)

// Abort reasons (the Arg of a KViolation event).
const (
	abortReadLocked = iota // first read hit a line locked by a committer
	abortReadStale         // first read saw a timestamp newer than rv
	abortLockBusy          // commit-time lock acquisition was NACKed
	abortValidate          // read-set validation failed against rv
)

// Processor opcodes, after the driver's (rival.Thread.Handle). All carry the
// attempt epoch in a1.
const (
	prRV           = rival.OpProtocol + iota // a2 = rv: begin-of-tx clock sample
	prAbort                                  // a2 = abort reason: a home refused the read
	prLockResp                               // a2 = 1 if the home locked the group
	prWV                                     // a2 = wv: commit timestamp
	prValidateResp                           // a2 = 1 if the home validated the group
)

// proc is one TL2 processor: instrumented reads, buffered writes, and the
// lock → clock → validate → write-back commit sequence. Its TxLine.Read
// marks a line whose home timestamp was checked this attempt.
type proc struct {
	rival.Thread
	sys *System

	beginCost sim.Time // cycles spent sampling rv at begin
	commitAt  sim.Time
	rv        mem.Version
	wv        mem.Version

	groups      []rival.HomeGroup // commit write-set, grouped by home
	vgroups     []rival.HomeGroup // validation read-set, grouped by home
	pendingAcks int
	nacked      bool
}

func newProc(s *System, id int) *proc {
	p := &proc{sys: s}
	p.Init(&s.Machine, id, p)
	p.RNG = sim.NewRNG(s.Cfg.Seed).Derive(0x712, uint64(id))
	return p
}

// HandleEvent dispatches the processor's events; stale replies are dropped.
func (p *proc) HandleEvent(code uint32, a1, a2 uint64) {
	if !p.Handle(code, a1, a2) || a1 != p.Epoch {
		return
	}
	switch code {
	case prRV:
		p.rv = mem.Version(a2)
		p.beginCost = p.sys.Kernel.Now() - p.TxStart
		p.Step()
	case prAbort:
		p.abort(int(a2))
	case prLockResp:
		p.onLockResp(a2 != 0)
	case prWV:
		p.onWV(mem.Version(a2))
	case prValidateResp:
		p.onValidateResp(a2 != 0)
	default:
		panic("tl2: unknown processor event")
	}
}

// StartAttempt begins (or retries) the transaction: reset speculative
// bookkeeping and sample the global version clock for rv.
func (p *proc) StartAttempt() {
	p.ResetAttempt()
	p.sys.Net.SendEvent(p.ID, 0, rival.MsgHdr, mesh.ClassCommit, p.sys, sysClockRead, uint64(p.ID), p.Epoch)
}

// Access performs a load or a store. The first load of a line in an attempt
// pays a version check at the line's home (TL2's read instrumentation);
// later loads are local, which is sound because any commit to the line
// after the check carries a timestamp above rv and commit-time validation
// aborts this transaction. An evicted line is re-checked at home, where a
// timestamp above rv means an intervening commit. Stores are buffered
// locally; TL2 contacts the write-set homes only at commit.
func (p *proc) Access(op workload.Op) {
	base := p.sys.Cfg.Geometry.Line(op.Addr)
	if op.Kind == workload.Store {
		tl := p.Lines.Line(base)
		tl.Written = tl.Written.Set(p.sys.Cfg.Geometry.WordIndex(op.Addr))
		p.FinishLocal(base)
		return
	}
	if !p.ReadLocal(op.Addr, base, true) {
		p.SendRead(reqRead, op.Addr, base)
	}
}

func written(tl *rival.TxLine) bool { return tl.Written.Any() }
func read(tl *rival.TxLine) bool    { return tl.Read }

// Commit starts the commit sequence: acquire write locks at the write-set
// homes (all-or-nothing per home, in parallel).
func (p *proc) Commit() {
	p.commitAt = p.sys.Kernel.Now()
	p.groups = p.GroupByHome(p.groups, written)
	if len(p.groups) == 0 {
		// Read-only transaction: still acquire a unique wv and validate, so
		// every transaction appears in the commit log with a unique TID.
		p.requestWV()
		return
	}
	p.pendingAcks = len(p.groups)
	p.nacked = false
	for gi := range p.groups {
		p.SendGroup(reqLock, &p.groups[gi]).Group = gi
	}
}

func (p *proc) onLockResp(ok bool) {
	if !ok {
		p.nacked = true
	}
	p.pendingAcks--
	if p.pendingAcks > 0 {
		return
	}
	if p.nacked {
		p.releaseLocks()
		p.abort(abortLockBusy)
		return
	}
	p.requestWV()
}

// releaseLocks unlocks every home group whose acquisition succeeded
// (fire-and-forget: per-pair FIFO delivery orders the release before any
// later request from this processor to the same home).
func (p *proc) releaseLocks() {
	for gi := range p.groups {
		if p.groups[gi].Locked {
			p.SendGroup(reqRelease, &p.groups[gi])
		}
	}
}

// requestWV increments the global version clock at node 0 and returns the
// new value as this transaction's commit timestamp.
func (p *proc) requestWV() {
	p.sys.Net.SendEvent(p.ID, 0, rival.MsgHdr, mesh.ClassCommit, p.sys, sysClockAdvance, uint64(p.ID), 0)
}

func (p *proc) onWV(wv mem.Version) {
	p.wv = wv
	if p.rv+1 == wv {
		// No transaction committed between rv and wv: the read-set cannot
		// have been overwritten (TL2's validation fast path).
		p.finishCommit()
		return
	}
	p.vgroups = p.GroupByHome(p.vgroups, read)
	if len(p.vgroups) == 0 {
		p.finishCommit()
		return
	}
	p.pendingAcks = len(p.vgroups)
	p.nacked = false
	for gi := range p.vgroups {
		p.SendGroup(reqValidate, &p.vgroups[gi])
	}
}

func (p *proc) onValidateResp(ok bool) {
	if !ok {
		p.nacked = true
	}
	p.pendingAcks--
	if p.pendingAcks > 0 {
		return
	}
	if p.nacked {
		p.releaseLocks()
		p.abort(abortValidate)
		return
	}
	p.finishCommit()
}

// finishCommit writes the write-set back (data tagged wv, locks released at
// application time) and retires the transaction. Write-backs are
// fire-and-forget: per-pair FIFO keeps this processor's next accesses
// ordered behind them, and other processors NACK on the lock until the data
// lands.
func (p *proc) finishCommit() {
	s := p.sys
	wv := p.wv
	if s.Obsv != nil {
		s.Emit(obs.Event{Kind: obs.KCommit, Node: p.ID, Peer: -1, TID: uint64(wv),
			Arg: int64(p.ReadSet.Len())})
	}
	record := p.NewRecord(wv)
	for gi := range p.groups {
		p.SendCommit(reqWriteBack, &p.groups[gi], wv)
	}
	p.CommitLines(record, wv)
	s.Log(record)
	if s.Obsv != nil {
		s.Emit(obs.Event{Kind: obs.KCommitDone, Node: p.ID, Peer: -1, TID: uint64(wv)})
	}
	p.Retire(s.Kernel.Now() - p.commitAt + p.beginCost)
}

// abort rolls the attempt back and retries after randomized bounded
// exponential backoff.
func (p *proc) abort(reason int) {
	p.NoteViolation(int64(reason))
	p.Backoff()
}
