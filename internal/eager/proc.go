package eager

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
	abortReadConflict  = iota // read NACKed by a registered foreign writer
	abortWriteConflict        // write NACKed by foreign readers or a writer
)

// Processor opcodes, after the driver's (rival.Thread.Handle). All carry the
// attempt epoch in a1.
const (
	prAbort     = rival.OpProtocol + iota // a2 = abort reason: a home NACKed
	prWriteAck                            // a2 = word address: registered as the writer
	prTID                                 // a2 = commit TID
	prCommitAck                           // a home applied the commit
)

// proc is one eager-HTM processor: every first access announces itself to
// the line's home, conflicts abort the requester immediately. Its lines are
// the ones it holds registrations on; TxLine.Read marks a reader
// registration (the local copy is protected), TxLine.Write the writer's.
type proc struct {
	rival.Thread
	sys *System

	commitAt    sim.Time
	tid         mem.Version
	groups      []rival.HomeGroup // registered lines grouped by home (commit, abort)
	pendingAcks int
}

func newProc(s *System, id int) *proc {
	p := &proc{sys: s}
	p.Init(&s.Machine, id, p)
	p.RNG = sim.NewRNG(s.Cfg.Seed).Derive(0xEA6E, uint64(id))
	return p
}

// HandleEvent dispatches the processor's events; stale replies are dropped.
func (p *proc) HandleEvent(code uint32, a1, a2 uint64) {
	if !p.Handle(code, a1, a2) || a1 != p.Epoch {
		return
	}
	switch code {
	case prAbort:
		p.abort(int(a2))
	case prWriteAck:
		base := p.sys.Cfg.Geometry.Line(mem.Addr(a2))
		tl := p.Lines.Line(base)
		tl.Write = true
		tl.Written = tl.Written.Set(p.sys.Cfg.Geometry.WordIndex(mem.Addr(a2)))
		p.FinishRemote(base)
	case prTID:
		p.onTID(mem.Version(a2))
	case prCommitAck:
		p.pendingAcks--
		if p.pendingAcks == 0 {
			p.finishCommit()
		}
	default:
		panic("eager: unknown processor event")
	}
}

// StartAttempt begins (or retries) the transaction.
func (p *proc) StartAttempt() {
	p.ResetAttempt()
	p.Step()
}

// Access performs a load or a store. The first load of a line registers
// this processor as a reader at the line's home; registration is held until
// commit/abort, so later loads of the line are local. A registered but
// evicted line, or one this transaction only writes (which may hold a stale
// copy from an earlier transaction), is refetched under the registration.
// The first store to a line requests write registration at the home; later
// stores are buffered locally.
func (p *proc) Access(op workload.Op) {
	base := p.sys.Cfg.Geometry.Line(op.Addr)
	if op.Kind == workload.Store {
		if tl := p.Lines.Lookup(base); tl != nil && tl.Write {
			tl.Written = tl.Written.Set(p.sys.Cfg.Geometry.WordIndex(op.Addr))
			p.FinishLocal(base)
			return
		}
		p.SendWord(reqWrite, op.Addr, mesh.ClassCommit)
		return
	}
	if !p.ReadLocal(op.Addr, base, false) {
		p.SendRead(reqRead, op.Addr, base)
	}
}

func registered(*rival.TxLine) bool { return true }

// Commit takes a TID from the vendor at node 0. The TID is granted while
// every registration is still held, so real-time commit order equals TID
// order.
func (p *proc) Commit() {
	p.commitAt = p.sys.Kernel.Now()
	p.sys.Net.SendEvent(p.ID, 0, rival.MsgHdr, mesh.ClassCommit, p.sys, sysTID, uint64(p.ID), 0)
}

// onTID writes the write-set back home (data tagged with the TID) and
// releases every registration; each home acks so the transaction retires
// only after its commit is globally visible.
func (p *proc) onTID(t mem.Version) {
	s := p.sys
	p.tid = t
	if s.Obsv != nil {
		s.Emit(obs.Event{Kind: obs.KCommit, Node: p.ID, Peer: -1, TID: uint64(t),
			Arg: int64(p.ReadSet.Len())})
	}
	record := p.NewRecord(t)
	p.groups = p.GroupByHome(p.groups, registered)
	p.pendingAcks = len(p.groups)
	for gi := range p.groups {
		p.SendCommit(reqCommit, &p.groups[gi], t)
	}
	p.CommitLines(record, t)
	s.Log(record)
	if p.pendingAcks == 0 {
		p.finishCommit()
	}
}

func (p *proc) finishCommit() {
	s := p.sys
	if s.Obsv != nil {
		s.Emit(obs.Event{Kind: obs.KCommitDone, Node: p.ID, Peer: -1, TID: uint64(p.tid)})
	}
	p.Retire(s.Kernel.Now() - p.commitAt)
}

// abort releases every registration this attempt holds (fire-and-forget:
// per-pair FIFO delivery orders the release before any later request from
// this processor to the same home), then retries after randomized bounded
// exponential backoff.
func (p *proc) abort(reason int) {
	p.NoteViolation(int64(reason))
	p.groups = p.GroupByHome(p.groups, registered)
	for gi := range p.groups {
		p.SendGroup(reqRelease, &p.groups[gi])
	}
	p.Backoff()
}
