// Package eager models an eager-conflict-detection HTM on the same
// distributed machine as the scalable TCC design: transactions announce
// every read and write to the accessed line's home directory at access
// time, and the directory refuses (NACKs) any request that conflicts with
// a live transaction — the requester aborts immediately instead of
// discovering the conflict at commit (the LogTM/UTM school of design, with
// requester-loses resolution).
//
// The directory tracks, per line, the set of registered readers and the
// single registered writer among in-flight transactions. Registration is
// strict two-phase: entries are held until the owning transaction commits
// or aborts, so a registered line's local copy can never be overwritten
// concurrently — conflict detection lives in the directory, which also
// means a cache eviction costs only a refetch, never an abort. Commit
// fetches a sequence number from the TID vendor at node 0, then writes the
// write-set back home (data tagged with the TID) and releases every
// registration; because the TID is granted while all registrations are
// held, real-time commit order equals TID order and runs pass the same
// serializability and final-memory oracles as the lazy machines.
//
// Protocol summary per transaction:
//
//	read     first access of a line registers this processor as a reader
//	         at the home; a registered foreign writer NACKs the request
//	write    registers this processor as the line's writer; a foreign
//	         writer or any foreign reader NACKs; data stays buffered
//	commit   take a TID from the vendor, write the write-set back and
//	         release every registration (acked), then continue
//	abort    release registrations, randomized bounded exponential
//	         backoff, retry
package eager

import (
	"scalabletcc/internal/bits"
	"scalabletcc/internal/core"
	"scalabletcc/internal/mem"
	"scalabletcc/internal/mesh"
	"scalabletcc/internal/obs"
	"scalabletcc/internal/rival"
	"scalabletcc/internal/sim"
	"scalabletcc/internal/stats"
	"scalabletcc/internal/verify"
	"scalabletcc/internal/workload"
)

// Results summarizes an eager run.
type Results struct {
	Cycles     sim.Time
	Breakdown  stats.Breakdown
	Commits    uint64
	Violations uint64 // aborted attempts (read and write NACKs)
	Instr      uint64

	// NacksRead/NacksWrite split the aborts by the request the directory
	// refused.
	NacksRead  uint64
	NacksWrite uint64

	Traffic   mesh.Stats
	CommitLog []verify.Record
}

// Summary returns the machine-independent digest (ProtocolResults.Summary).
func (r *Results) Summary() stats.Summary {
	return stats.Summary{
		Protocol:     "eager",
		Cycles:       uint64(r.Cycles),
		Instructions: r.Instr,
		Commits:      r.Commits,
		Violations:   r.Violations,
		Breakdown:    r.Breakdown,
	}
}

// lineDir is one line's conflict-tracking state at its home: the version of
// the last committed writer plus the live reader/writer registrations.
type lineDir struct {
	version mem.Version
	writer  int // registered writing processor, -1 when none
	readers bits.NodeSet
}

// release drops id's reader and writer registrations.
func (d *lineDir) release(id int) {
	d.readers.Clear(id)
	if d.writer == id {
		d.writer = -1
	}
}

func (d *lineDir) readersOtherThan(id int) bool {
	n := d.readers.Count()
	return n > 1 || (n == 1 && !d.readers.Has(id))
}

// homeDir is one home's registration table: dense entries behind an
// address index.
type homeDir struct {
	idx   mem.AddrIndex
	lines []lineDir
}

// System is the assembled eager machine.
type System struct {
	rival.Machine
	procs []*proc
	dirs  []homeDir

	commitSeq  mem.Version // the TID vendor at node 0
	nacksRead  uint64
	nacksWrite uint64
}

// NewSystem builds an eager machine for prog on the shared machine cfg. A
// line's registrations cost cfg.DirLatency at its home; cfg.MemLatency is
// charged when a reply carries line data.
func NewSystem(cfg core.Config, prog workload.Program) (*System, error) {
	s := &System{dirs: make([]homeDir, cfg.Procs)}
	var err error
	if s.Machine, err = rival.NewMachine("eager", cfg, prog, s); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Procs; i++ {
		s.procs = append(s.procs, newProc(s, i))
	}
	return s, nil
}

// dir returns (allocating if needed) the line's registration entry at home.
// The pointer is valid until the next dir call.
func (s *System) dir(home int, base mem.Addr) *lineDir {
	h := &s.dirs[home]
	if i, ok := h.idx.Get(base); ok {
		return &h.lines[i]
	}
	h.idx.Set(base, int32(len(h.lines)))
	h.lines = append(h.lines, lineDir{writer: -1})
	return &h.lines[len(h.lines)-1]
}

// System opcodes.
const (
	sysTID uint32 = iota // a1 = proc: grant a commit TID
)

// Request kinds (rival.Msg.Kind).
const (
	reqRead    uint8 = iota // register a reader, maybe send data
	reqWrite                // register the writer
	reqCommit               // write back a group's data and release it (acked)
	reqRelease              // abort: release a group's registrations (fire-and-forget)
)

// HandleEvent runs the TID vendor.
func (s *System) HandleEvent(code uint32, a1, a2 uint64) {
	if code != sysTID {
		panic("eager: unknown system event")
	}
	s.commitSeq++
	if s.Obsv != nil {
		s.Emit(obs.Event{Kind: obs.KTIDGrant, Node: 0, Peer: int(a1), TID: uint64(s.commitSeq)})
	}
	s.Reply(0, int(a1), mesh.ClassCommit, prTID, uint64(s.commitSeq))
}

// Serve executes request i at its home after the registration-table access
// (rival.Server).
func (s *System) Serve(i int32) {
	m := s.Msg(i)
	id := m.Proc
	switch m.Kind {
	case reqRead:
		if s.serveRead(i, m) {
			return // the record lives on as the data reply
		}
	case reqWrite:
		base := s.Cfg.Geometry.Line(m.Addr)
		d := s.dir(m.Home, base)
		if (d.writer >= 0 && d.writer != id) || d.readersOtherThan(id) {
			s.nacksWrite++
			if s.Obsv != nil {
				s.Emit(obs.Event{Kind: obs.KAbort, Node: m.Home, Peer: id, Addr: uint64(base), Arg: 1})
			}
			s.Reply(m.Home, id, mesh.ClassCommit, prAbort, abortWriteConflict)
			break
		}
		d.writer = id
		if s.Obsv != nil {
			s.Emit(obs.Event{Kind: obs.KMark, Node: m.Home, Peer: id, Addr: uint64(base)})
		}
		s.Reply(m.Home, id, mesh.ClassCommit, prWriteAck, uint64(m.Addr))
	case reqCommit:
		for j, base := range m.Bases {
			d := s.dir(m.Home, base)
			if w := m.Masks[j]; w.Any() {
				s.Memory.SetWords(base, uint64(w), m.Version)
				d.version = m.Version
				if s.Obsv != nil {
					s.Emit(obs.Event{Kind: obs.KCommitLine, Node: m.Home, Peer: id,
						TID: uint64(m.Version), Addr: uint64(base), Words: uint64(w)})
				}
			}
			d.release(id)
		}
		s.Reply(m.Home, id, mesh.ClassCommit, prCommitAck, 0)
	case reqRelease:
		for _, base := range m.Bases {
			s.dir(m.Home, base).release(id)
		}
	}
	s.FreeMsg(i)
}

// serveRead registers a reader unless a foreign writer holds the line, and
// answers with a NACK, a registration-only confirmation, or the line data,
// snapshotted with its version under the registration (no writer can
// intervene). It reports whether record i lives on as the data reply.
func (s *System) serveRead(i int32, m *rival.Msg) bool {
	id := m.Proc
	base := s.Cfg.Geometry.Line(m.Addr)
	d := s.dir(m.Home, base)
	if d.writer >= 0 && d.writer != id {
		s.nacksRead++
		if s.Obsv != nil {
			s.Emit(obs.Event{Kind: obs.KAbort, Node: m.Home, Peer: id, Addr: uint64(base)})
		}
		s.Reply(m.Home, id, mesh.ClassMiss, prAbort, abortReadConflict)
		return false
	}
	d.readers.Set(id)
	if s.Obsv != nil {
		s.Emit(obs.Event{Kind: obs.KLoad, Node: m.Home, Peer: id, Addr: uint64(base),
			TID: uint64(d.version)})
	}
	if m.Valid && m.CachedV == d.version {
		// The requester's copy is current: registration-only reply.
		s.Reply(m.Home, id, mesh.ClassMiss, rival.OpReadValid, uint64(m.Addr))
		return false
	}
	s.ReplyData(i, base, d.version)
	return true
}

// Run executes the program to completion.
func (s *System) Run() (*Results, error) {
	if err := s.Simulate(); err != nil {
		return nil, err
	}
	return &Results{
		Cycles:     s.Kernel.Now(),
		Breakdown:  s.Breakdown(),
		Commits:    s.Commits,
		Violations: s.Violations,
		Instr:      s.Instr,
		NacksRead:  s.nacksRead,
		NacksWrite: s.nacksWrite,
		Traffic:    s.Net.Stats(),
		CommitLog:  s.CommitLog,
	}, nil
}
