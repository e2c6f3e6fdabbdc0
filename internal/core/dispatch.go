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

// Pool-index encoding. In sequential mode an index is a plain slot into the
// System's global slab. Under the sharded executor every node owns its own
// slab (so allocation never crosses goroutines) and an index carries its
// owner: node << portShift | slot.
const (
	portShift = 20
	slotMask  = (1 << portShift) - 1
)

// msgAt resolves a pool index to its message record.
func (s *System) msgAt(i int32) *protoMsg {
	if s.ports != nil {
		return &s.ports[i>>portShift].msgs[i&slotMask]
	}
	return &s.msgs[i]
}

// newMsg allocates a message record from the pool of the sending node (the
// executing node — every allocation site allocates on behalf of src). The
// returned pointer is valid only until the next pool allocation; callers
// fill the payload fields and send immediately.
func (s *System) newMsg(kind MsgKind, src, dst int) (int32, *protoMsg) {
	if s.ports != nil {
		i, m := s.ports[src].allocMsg()
		m.kind, m.src, m.dst = kind, int32(src), int32(dst)
		return i, m
	}
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

// freeMsg returns a message record (and its data buffer, if any) to the pool
// that owns it. Only the data pointer is cleared; newMsg overwrites the whole
// record on reallocation, so zeroing the rest here would be redundant work
// per message.
func (s *System) freeMsg(i int32) {
	if s.ports != nil {
		s.ports[i>>portShift].freeMsg(i & slotMask)
		return
	}
	m := &s.msgs[i]
	if m.data != nil {
		s.releaseBuf(0, m.data)
		m.data = nil
	}
	s.msgFree = append(s.msgFree, i)
	if s.aud != nil {
		s.aud.onMsgFree(i)
	}
}

// sendMsg routes message i to its destination node. In sequential mode the
// mesh walk happens inline and the System handler dispatches the arrival.
// Under the sharded executor the sending node may not touch the mesh (links
// are shared, and the kernel clocks of other nodes have not reached this
// point): a node-local message is posted straight into the node's own
// kernel at LocalLatency (accounted on the node, folded into the traffic
// stats at the end), while a cross-node message is captured — value plus
// data snapshot — into the node's outbox for the serial merge phase to
// route in canonical order.
func (s *System) sendMsg(i int32) {
	if s.ports != nil {
		s.ports[i>>portShift].sendMsg(i)
		return
	}
	m := &s.msgs[i]
	s.msgCounts[m.kind]++
	s.net.SendEvent(int(m.src), int(m.dst), s.cfg.size(m.kind), class(m.kind), s, sysMsg, uint64(i), 0)
}

// acquireBuf returns a line-sized version buffer from the executing node's
// pool (the node argument is ignored in sequential mode, which has one
// global pool).
func (s *System) acquireBuf(node int) []mem.Version {
	if s.ports != nil {
		return s.ports[node].acquireBuf()
	}
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

// releaseBuf returns a buffer to the executing node's pool.
func (s *System) releaseBuf(node int, b []mem.Version) {
	if s.ports != nil {
		s.ports[node].releaseBuf(b)
		return
	}
	s.bufFree = append(s.bufFree, b)
	if s.aud != nil {
		s.aud.onBufRelease()
	}
}

// copyLine snapshots src into a pooled buffer of the executing node.
func (s *System) copyLine(node int, src []mem.Version) []mem.Version {
	b := s.acquireBuf(node)
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

// dispatchMsg hands an arrived message to its consumer: the shared tail of
// the sequential mesh handler above and the sharded per-node port handler.
func (s *System) dispatchMsg(i int32) {
	m := s.msgAt(i)
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
