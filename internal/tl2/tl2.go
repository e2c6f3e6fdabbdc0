// Package tl2 models a TL2-style software transactional memory running on
// the same distributed machine as the scalable TCC design: lazy versioning
// with a global version clock, per-line versioned write locks taken at
// commit, and read-set validation against per-location timestamps (Dice,
// Shalev & Shavit, DISC 2006).
//
// The mapping onto the simulated hardware keeps the comparison with the
// directory protocols honest. Each line's timestamp and lock live at the
// line's home node (the same first-touch homing the TCC directories use),
// so the STM's per-read version check, commit-time lock acquisition, and
// read-set validation are all real messages over the shared mesh. The
// global version clock is a single counter at node 0 — the serialization
// point the paper's distributed commit deliberately avoids, and exactly
// the contrast the head-to-head sweeps measure. Data words carry versions
// (the TID of the last committed writer), so runs feed the same
// serializability and final-memory oracles as every other machine model.
//
// Protocol summary per transaction:
//
//	begin    sample the global clock (rv) with a round trip to node 0
//	read     first access of a line pays a version check at its home;
//	         a locked line or a timestamp newer than rv aborts the reader
//	write    buffered locally, no home contact until commit
//	commit   lock the write-set lines at their homes (all-or-nothing per
//	         home, NACK aborts), increment the clock (wv), validate the
//	         read-set timestamps against rv, then write back data tagged
//	         wv and release the locks
//	abort    randomized bounded exponential backoff, then retry
package tl2

import (
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

// Results summarizes a TL2 run.
type Results struct {
	Cycles     sim.Time
	Breakdown  stats.Breakdown
	Commits    uint64
	Violations uint64 // aborted attempts (lock, validation, and read NACKs)
	Instr      uint64

	// ClockReads/ClockAdvances count round trips to the global version
	// clock: one read per attempt, one increment per commit.
	ClockReads    uint64
	ClockAdvances uint64

	Traffic   mesh.Stats
	CommitLog []verify.Record
}

// Summary returns the machine-independent digest (ProtocolResults.Summary).
func (r *Results) Summary() stats.Summary {
	return stats.Summary{
		Protocol:     "tl2",
		Cycles:       uint64(r.Cycles),
		Instructions: r.Instr,
		Commits:      r.Commits,
		Violations:   r.Violations,
		Breakdown:    r.Breakdown,
	}
}

// lineMeta is one line's STM metadata at its home: the timestamp of the
// last committed writer and the commit-time write lock.
type lineMeta struct {
	version  mem.Version
	lockedBy int // locking processor, -1 when free
}

// homeMeta is one home's metadata table: dense entries behind an address
// index.
type homeMeta struct {
	idx   mem.AddrIndex
	lines []lineMeta
}

// System is the assembled TL2 machine.
type System struct {
	rival.Machine
	procs []*proc
	dirs  []homeMeta

	clock         mem.Version // the global version clock, hosted at node 0
	clockReads    uint64
	clockAdvances uint64
}

// NewSystem builds a TL2 machine for prog on the shared machine cfg. A
// line's timestamp and lock cost cfg.DirLatency at its home; cfg.MemLatency
// is charged when a reply carries line data.
func NewSystem(cfg core.Config, prog workload.Program) (*System, error) {
	s := &System{dirs: make([]homeMeta, cfg.Procs)}
	var err error
	if s.Machine, err = rival.NewMachine("tl2", cfg, prog, s); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Procs; i++ {
		s.procs = append(s.procs, newProc(s, i))
	}
	return s, nil
}

// meta returns (allocating if needed) the line's metadata entry at home. The
// pointer is valid until the next meta call.
func (s *System) meta(home int, base mem.Addr) *lineMeta {
	h := &s.dirs[home]
	if i, ok := h.idx.Get(base); ok {
		return &h.lines[i]
	}
	h.idx.Set(base, int32(len(h.lines)))
	h.lines = append(h.lines, lineMeta{lockedBy: -1})
	return &h.lines[len(h.lines)-1]
}

// System opcodes: the global version clock at node 0.
const (
	sysClockRead    uint32 = iota // a1 = proc, a2 = epoch: sample the clock for rv
	sysClockAdvance               // a1 = proc: increment the clock for wv
)

// Request kinds (rival.Msg.Kind).
const (
	reqRead      uint8 = iota // first read of a line: version check, maybe data
	reqLock                   // commit: lock a group's lines
	reqRelease                // abort: unlock a locked group (fire-and-forget)
	reqValidate               // commit: validate a group's read timestamps
	reqWriteBack              // commit: write data tagged wv, unlock (fire-and-forget)
)

func b2u(ok bool) uint64 {
	if ok {
		return 1
	}
	return 0
}

// HandleEvent runs the version clock.
func (s *System) HandleEvent(code uint32, a1, a2 uint64) {
	p := s.procs[a1]
	switch code {
	case sysClockRead:
		if p.Epoch != a2 {
			return
		}
		s.clockReads++
		if s.Obsv != nil {
			s.Emit(obs.Event{Kind: obs.KProbeResp, Node: 0, Peer: p.ID, TID: uint64(s.clock)})
		}
		s.Reply(0, p.ID, mesh.ClassCommit, prRV, uint64(s.clock))
	case sysClockAdvance:
		s.clock++
		s.clockAdvances++
		if s.Obsv != nil {
			s.Emit(obs.Event{Kind: obs.KTIDGrant, Node: 0, Peer: p.ID, TID: uint64(s.clock)})
		}
		s.Reply(0, p.ID, mesh.ClassCommit, prWV, uint64(s.clock))
	default:
		panic("tl2: unknown system event")
	}
}

// Serve executes request i at its home after the metadata access
// (rival.Server).
func (s *System) Serve(i int32) {
	m := s.Msg(i)
	p := s.procs[m.Proc]
	switch m.Kind {
	case reqRead:
		if s.serveRead(i, m, p) {
			return // the record lives on as the data reply
		}
	case reqLock:
		ok := true
		for _, base := range m.Bases {
			if lm := s.meta(m.Home, base); lm.lockedBy >= 0 && lm.lockedBy != p.ID {
				ok = false
				break
			}
		}
		if ok {
			for _, base := range m.Bases {
				s.meta(m.Home, base).lockedBy = p.ID
				if s.Obsv != nil {
					s.Emit(obs.Event{Kind: obs.KMark, Node: m.Home, Peer: p.ID, Addr: uint64(base)})
				}
			}
		} else if s.Obsv != nil {
			s.Emit(obs.Event{Kind: obs.KAbort, Node: m.Home, Peer: p.ID})
		}
		p.groups[m.Group].Locked = ok
		s.Reply(m.Home, p.ID, mesh.ClassCommit, prLockResp, b2u(ok))
	case reqRelease:
		for _, base := range m.Bases {
			if lm := s.meta(m.Home, base); lm.lockedBy == p.ID {
				lm.lockedBy = -1
			}
		}
	case reqValidate:
		ok := true
		for _, base := range m.Bases {
			lm := s.meta(m.Home, base)
			if lm.version > p.rv || (lm.lockedBy >= 0 && lm.lockedBy != p.ID) {
				ok = false
				break
			}
		}
		if s.Obsv != nil {
			s.Emit(obs.Event{Kind: obs.KProbeResp, Node: m.Home, Peer: p.ID,
				Words: uint64(len(m.Bases)), Arg: int64(b2u(ok))})
		}
		s.Reply(m.Home, p.ID, mesh.ClassCommit, prValidateResp, b2u(ok))
	case reqWriteBack:
		for j, base := range m.Bases {
			s.Memory.SetWords(base, uint64(m.Masks[j]), m.Version)
			lm := s.meta(m.Home, base)
			lm.version = m.Version
			lm.lockedBy = -1
			if s.Obsv != nil {
				s.Emit(obs.Event{Kind: obs.KCommitLine, Node: m.Home, Peer: p.ID,
					TID: uint64(m.Version), Addr: uint64(base), Words: uint64(m.Masks[j])})
			}
		}
	}
	s.FreeMsg(i)
}

// serveRead checks a first read against the line's lock and timestamp and
// answers with a NACK, a timestamp-only confirmation, or the line data. It
// reports whether record i lives on as the data reply.
func (s *System) serveRead(i int32, m *rival.Msg, p *proc) bool {
	base := s.Cfg.Geometry.Line(m.Addr)
	lm := s.meta(m.Home, base)
	if lm.lockedBy >= 0 && lm.lockedBy != p.ID {
		if s.Obsv != nil {
			s.Emit(obs.Event{Kind: obs.KAbort, Node: m.Home, Peer: p.ID, Addr: uint64(base)})
		}
		s.Reply(m.Home, p.ID, mesh.ClassMiss, prAbort, abortReadLocked)
		return false
	}
	if lm.version > p.rv {
		if s.Obsv != nil {
			s.Emit(obs.Event{Kind: obs.KAbort, Node: m.Home, Peer: p.ID, Addr: uint64(base),
				TID: uint64(lm.version)})
		}
		s.Reply(m.Home, p.ID, mesh.ClassMiss, prAbort, abortReadStale)
		return false
	}
	if s.Obsv != nil {
		s.Emit(obs.Event{Kind: obs.KLoad, Node: m.Home, Peer: p.ID, Addr: uint64(base),
			TID: uint64(lm.version)})
	}
	if m.Valid && m.CachedV == lm.version {
		// The requester's copy is current: timestamp-only reply.
		s.Reply(m.Home, p.ID, mesh.ClassMiss, rival.OpReadValid, uint64(m.Addr))
		return false
	}
	s.ReplyData(i, base, lm.version)
	return true
}

// Run executes the program to completion.
func (s *System) Run() (*Results, error) {
	if err := s.Simulate(); err != nil {
		return nil, err
	}
	return &Results{
		Cycles:        s.Kernel.Now(),
		Breakdown:     s.Breakdown(),
		Commits:       s.Commits,
		Violations:    s.Violations,
		Instr:         s.Instr,
		ClockReads:    s.clockReads,
		ClockAdvances: s.clockAdvances,
		Traffic:       s.Net.Stats(),
		CommitLog:     s.CommitLog,
	}, nil
}
