package core

import (
	"scalabletcc/internal/bits"
	"scalabletcc/internal/mem"
	"scalabletcc/internal/tid"
)

// Typed-event dispatch for the protocol hot path.
//
// Every in-flight protocol message is a pooled protoMsg record identified by
// its pool index; the index travels through the mesh as the a1 argument of a
// typed kernel event, so steady-state message traffic allocates nothing. The
// System is the mesh-facing handler: it receives every arrival, dispatches
// processor-bound messages immediately, and hands directory-bound ones to the
// destination directory's occupancy pipeline. Each handler type has its own
// opcode space — opcodes are only ever interpreted by the handler they were
// posted to.

// System opcodes.
const (
	sysMsg    uint32 = iota // a1 = protoMsg pool index: deliver a protocol message
	sysSample               // take an occupancy sample and re-arm
	sysFault                // a1 = directory: inject a Skip Vector fault
)

// Processor opcodes. Continuations that belong to one transaction attempt
// carry the attempt's epoch in a1 and die silently if the transaction rolled
// back or committed in the meantime (the old closure-guard idiom).
const (
	prStep           uint32 = iota // a1 = epoch: run the next operation
	prStartAttempt                 // a1 = epoch: (re)start the current transaction
	prBeginTx                      // advance to the next transaction
	prReprobe                      // a1 = epoch, a2 = dir<<1 | write: resend a probe
	prBarrierRelease               // resume after a phase barrier
	prStart                        // begin the program
)

// Directory opcodes.
const (
	dirExec     uint32 = iota // a1 = pool index: pipeline stage done, execute
	dirMemReady               // a1 = pool index of a prepared LoadResp to send
)

// protoMsg is one pooled in-flight protocol message. Field meaning depends on
// kind; data, when non-nil, is a pooled line-sized buffer owned by the message
// and released when the message is freed.
type protoMsg struct {
	kind   MsgKind
	src    int32
	dst    int32
	addr   mem.Addr
	t      tid.TID // TID payload (committer, tag, probe TID, ...)
	t2     tid.TID // second TID payload (NSTID answer)
	words  bits.WordMask
	words2 bits.WordMask // second mask payload (old owner's OW)
	data   []mem.Version
	flag   bool // write probe / write-back remove
}

// newMsg allocates a message record from the pool. The returned pointer is
// valid only until the next pool allocation; callers fill the payload
// fields and send immediately.
func (s *System) newMsg(kind MsgKind, src, dst int) (int32, *protoMsg) {
	var i int32
	if n := len(s.msgFree); n > 0 {
		i = s.msgFree[n-1]
		s.msgFree = s.msgFree[:n-1]
	} else {
		s.msgs = append(s.msgs, protoMsg{})
		i = int32(len(s.msgs) - 1)
	}
	m := &s.msgs[i]
	*m = protoMsg{kind: kind, src: int32(src), dst: int32(dst)}
	if s.aud != nil {
		s.aud.onMsgAlloc(i)
	}
	return i, m
}

// freeMsg returns a message record (and its data buffer, if any) to the
// pool. Only the data pointer is cleared; newMsg overwrites the whole record
// on reallocation, so zeroing the rest here would be redundant work per
// message.
func (s *System) freeMsg(i int32) {
	m := &s.msgs[i]
	if m.data != nil {
		s.releaseBuf(m.data)
		m.data = nil
	}
	s.msgFree = append(s.msgFree, i)
	if s.aud != nil {
		s.aud.onMsgFree(i)
	}
}

// sendMsg routes message i to its destination node: the mesh walk happens
// inline and the System handler dispatches the arrival. Under the epoch
// engine a cross-node message is instead captured by value, data buffer
// included, into the window buffer, and the merge routes it at the window
// boundary (shard.go); a node-local one takes the inline path, where the
// mesh only counts its traffic.
func (s *System) sendMsg(i int32) {
	m := &s.msgs[i]
	s.msgCounts[m.kind]++
	if s.win != nil && m.src != m.dst {
		s.win.sends = append(s.win.sends, sendEffect{t: s.kernel.Now(), msg: *m})
		m.data = nil
		s.freeMsg(i)
		return
	}
	s.net.SendEvent(int(m.src), int(m.dst), s.cfg.size(m.kind), class(m.kind), s, sysMsg, uint64(i), 0)
}

// acquireBuf returns a line-sized version buffer from the pool.
func (s *System) acquireBuf() []mem.Version {
	if s.aud != nil {
		s.aud.onBufAcquire()
	}
	if n := len(s.bufFree); n > 0 {
		b := s.bufFree[n-1]
		s.bufFree = s.bufFree[:n-1]
		return b
	}
	return make([]mem.Version, s.cfg.Geometry.WordsPerLine())
}

// releaseBuf returns a buffer to the pool.
func (s *System) releaseBuf(b []mem.Version) {
	s.bufFree = append(s.bufFree, b)
	if s.aud != nil {
		s.aud.onBufRelease()
	}
}

// copyLine snapshots src into a pooled buffer.
func (s *System) copyLine(src []mem.Version) []mem.Version {
	b := s.acquireBuf()
	copy(b, src)
	return b
}

// HandleEvent receives protocol messages at their mesh arrival time.
// Processor- and vendor-bound messages are dispatched (and freed) here;
// directory-bound ones enter the destination directory's occupancy pipeline
// and are freed after the pipeline stage executes.
//
// The message is read through a pointer into the pool rather than copied out:
// handlers may allocate new messages (moving the slab), but every handler
// argument below is a field load evaluated before the handler body runs, and
// m is never dereferenced after a handler returns.
func (s *System) HandleEvent(code uint32, a1, a2 uint64) {
	switch code {
	case sysMsg:
		s.dispatchMsg(int32(a1))
	case sysSample:
		s.sampleTick()
	case sysFault:
		s.injectSkipVectorFault(int(a1))
	default:
		panic("core: unknown system event")
	}
}

// dispatchMsg hands an arrived message to its consumer.
func (s *System) dispatchMsg(i int32) {
	m := &s.msgs[i]
	switch m.kind {
	case MsgLoadResp:
		s.procs[m.dst].onLoadResp(m.addr, m.data)
	case MsgTIDReq:
		s.vendorIssue(int(m.src))
	case MsgTIDResp:
		s.procs[m.dst].onTIDResp(m.t)
	case MsgProbeResp:
		s.procs[m.dst].onProbeResp(int(m.src), m.t, m.t2)
	case MsgInv:
		s.procs[m.dst].onInv(int(m.src), m.addr, m.t, m.words)
	case MsgFlushReq:
		s.procs[m.dst].onFlushReq(int(m.src), m.addr)
	case MsgFlushInv:
		s.procs[m.dst].onFlushInv(int(m.src), m.addr, m.t, m.words, m.words2)
	default:
		s.dirs[m.dst].enqueueMsg(i)
		return
	}
	s.freeMsg(i)
}
