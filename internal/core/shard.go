package core

import (
	"fmt"
	"sort"

	"scalabletcc/internal/bits"
	"scalabletcc/internal/mem"
	"scalabletcc/internal/mesh"
	"scalabletcc/internal/obs"
	"scalabletcc/internal/sim"
	"scalabletcc/internal/stats"
	"scalabletcc/internal/tid"
	"scalabletcc/internal/workload"
)

// Sharded execution of a System (Config.Shards >= 1).
//
// Every node gets its own timing wheel; the machine advances in lockstep
// windows of HopLatency cycles under sim.ShardExec. Inside a window a
// node's handlers run exactly as in sequential mode — all processor and
// directory events are node-local self-posts — but anything that would
// touch another node or global state is captured on the node's port:
//
//   - cross-node protocol messages are captured by value (with a data
//     snapshot) into the port's outbox, in execution order;
//   - observer events buffer on the port, stamped with the node's clock;
//   - barrier arrivals, TID retirements, and processor completions become
//     per-port counters/lists (their ordering is commutative);
//   - commit/violation statistics aggregate into per-port counters and
//     histograms, merged once after the run.
//
// At each window boundary the merge phase replays the window's captured
// sends through the mesh link model in canonical (time, node, capture
// order) order, delivers them into the destination nodes' kernels, applies
// barrier and vendor bookkeeping, and flushes observer events in the same
// canonical order. Because the window structure, the capture order within
// a node, and the canonical merge order are all functions of simulated
// behaviour alone, the outcome is bit-identical for every Shards value.
//
// The lookahead argument: a cross-node message sent at time t occupies at
// least one cycle per link and travels at least one hop, so it arrives at
// t + HopLatency + occupancy >= t + L + 1 — strictly after the window
// [T, T+L-1] containing t. Merge-phase inserts are therefore always in
// every destination kernel's future. Node-local sends (LocalLatency, which
// may be < L) never cross the port: they are self-posts into the node's own
// kernel, which is exactly the case a single wheel handles natively.

// Port opcodes (nodePort is a sim.Handler on the node's kernel).
const (
	// portMsg delivers a protocol message on the owning node; a1 is the
	// encoded pool index.
	portMsg uint32 = iota
)

// sendEffect is one captured cross-node message: the record by value, with
// msg.data owning a sender-pool snapshot of the payload until the merge
// phase copies it into a destination-pool buffer.
type sendEffect struct {
	t   sim.Time
	msg protoMsg
}

// nodePort is one node's membrane between its private kernel and the rest
// of the machine. During a window only the owning node's handlers touch
// it; during the merge phase only the merger does.
type nodePort struct {
	sys  *System
	node int
	k    *sim.Kernel

	// Node-owned pools (the sharded counterparts of System.msgs/bufFree).
	msgs    []protoMsg
	msgFree []int32
	bufFree [][]mem.Version

	// Captured cross-node sends, in execution order (nondecreasing time).
	out    []sendEffect
	outCur int

	// Buffered observer events, stamped with this node's clock.
	events   []obs.Event
	eventCur int

	// Window-commutative captures.
	barriers int       // barrier arrivals this window
	retires  []tid.TID // TIDs retired this window
	done     int       // processors finished, run total

	// Per-node statistics, merged into the System aggregate after the run.
	msgCounts      [NumMsgKinds]uint64
	commits        uint64
	violations     uint64
	instr          uint64
	txInstrH       stats.Histogram
	rdSetH         stats.Histogram
	wrSetH         stats.Histogram
	dirsTouchedH   stats.Histogram
	touched        bits.NodeSet
	commitLog      []CommitRecord
	localBytes     [mesh.NumClasses]uint64
	localMsgs      [mesh.NumClasses]uint64
	localNodeBytes uint64
}

// allocMsg allocates a message slot from this node's pool and returns its
// encoded index.
func (np *nodePort) allocMsg() (int32, *protoMsg) {
	var slot int32
	if n := len(np.msgFree); n > 0 {
		slot = np.msgFree[n-1]
		np.msgFree = np.msgFree[:n-1]
	} else {
		np.msgs = append(np.msgs, protoMsg{})
		slot = int32(len(np.msgs) - 1)
		if slot > slotMask {
			panic("core: per-node message pool exceeds index encoding")
		}
	}
	m := &np.msgs[slot]
	*m = protoMsg{}
	return int32(np.node)<<portShift | slot, m
}

// freeMsg returns slot (and its data buffer) to this node's pool.
func (np *nodePort) freeMsg(slot int32) {
	m := &np.msgs[slot]
	if m.data != nil {
		np.bufFree = append(np.bufFree, m.data)
		m.data = nil
	}
	np.msgFree = append(np.msgFree, slot)
}

func (np *nodePort) acquireBuf() []mem.Version {
	if n := len(np.bufFree); n > 0 {
		b := np.bufFree[n-1]
		np.bufFree = np.bufFree[:n-1]
		return b
	}
	return make([]mem.Version, np.sys.cfg.Geometry.WordsPerLine())
}

func (np *nodePort) releaseBuf(b []mem.Version) {
	np.bufFree = append(np.bufFree, b)
}

// sendMsg implements System.sendMsg for a message owned by this node.
func (np *nodePort) sendMsg(i int32) {
	slot := i & slotMask
	m := &np.msgs[slot]
	np.msgCounts[m.kind]++
	if m.src == m.dst {
		// Node-local delivery: a self-post, with the local traffic the mesh
		// would have accounted folded into the run totals later. The slot
		// stays live until dispatch frees it — it already belongs here.
		size := np.sys.cfg.size(m.kind)
		c := class(m.kind)
		np.localBytes[c] += uint64(size)
		np.localMsgs[c]++
		np.localNodeBytes += uint64(size)
		np.k.Post(np.k.Now()+np.sys.cfg.Mesh.LocalLatency, np, portMsg, uint64(i), 0)
		return
	}
	// Cross-node: capture by value. The data snapshot (already a
	// sender-pool buffer) moves into the effect; the slot frees now.
	np.out = append(np.out, sendEffect{t: np.k.Now(), msg: *m})
	m.data = nil
	np.msgFree = append(np.msgFree, slot)
}

// HandleEvent dispatches this node's arrived protocol messages.
func (np *nodePort) HandleEvent(code uint32, a1, a2 uint64) {
	if code != portMsg {
		panic("core: unknown port event")
	}
	np.sys.dispatchMsg(int32(a1))
}

// noteCommit is the per-node twin of System.noteCommit.
func (np *nodePort) noteCommit(p *Processor, instr uint64) {
	s := np.sys
	np.commits++
	np.instr += instr
	np.txInstrH.Add(instr)
	np.rdSetH.Add(uint64(p.readSet.Len() * s.cfg.Geometry.WordSize))
	var wrWords int
	np.touched.Reset()
	for _, d := range p.writeDirs {
		np.touched.Set(d)
		for _, wl := range p.writeLines[d] {
			wrWords += wl.words.Count()
		}
	}
	p.sharingVec.ForEach(func(d int) { np.touched.Set(d) })
	np.wrSetH.Add(uint64(wrWords * s.cfg.Geometry.WordSize))
	np.dirsTouchedH.Add(uint64(np.touched.Count()))
}

// ---------------------------------------------------------------------------
// Sharded run loop.

// premapProgram freezes the first-touch page map by walking the whole
// program in canonical (phase, proc, tx, op) order before execution starts.
// Sequential mode homes pages at their true first access; the sharded
// engine runs each node's whole window before the next node's, so that
// order would depend on how the run is cut into windows. It fixes homing up
// front instead — every runtime Home lookup is then a read-only hit.
func (s *System) premapProgram() {
	for ph := 0; ph < s.prog.Phases(); ph++ {
		for pr := 0; pr < s.cfg.Procs; pr++ {
			for i := 0; i < s.prog.TxCount(pr, ph); i++ {
				tx := s.prog.Tx(pr, ph, i)
				for _, op := range tx.Ops {
					if op.Kind == workload.Compute {
						continue
					}
					s.addrMap.Home(op.Addr, pr)
				}
			}
		}
	}
}

// runSharded executes the program on the epoch engine.
func (s *System) runSharded() (*Results, error) {
	if s.tape != nil {
		return nil, fmt.Errorf("core: TAPE conflict profiling requires Shards = 0 (sequential kernel)")
	}
	if s.aud != nil {
		return nil, fmt.Errorf("core: the invariant auditor requires Shards = 0 (sequential kernel)")
	}
	if s.sampleEvery > 0 {
		return nil, fmt.Errorf("core: the occupancy sampler requires Shards = 0 (sequential kernel)")
	}
	s.running = s.cfg.Procs
	if !s.restored {
		for _, p := range s.procs {
			s.ports[p.id].k.Post(0, p, prStart, 0, 0)
		}
	}
	ks := make([]*sim.Kernel, len(s.ports))
	for i, np := range s.ports {
		ks[i] = np.k
	}
	s.shardEx = &sim.ShardExec{
		Ks:     ks,
		Window: s.cfg.Mesh.HopLatency,
		Merge:  s.mergeWindow,
	}
	if s.cfg.MaxCycles > 0 || s.ckFn != nil {
		// Check runs at the start of each epoch, after the previous
		// window's merge — the sharded engine's quiescent cut.
		s.shardEx.Check = func(now sim.Time) error {
			if s.cfg.MaxCycles > 0 && now > s.cfg.MaxCycles {
				return fmt.Errorf("core: watchdog expired at cycle %d (%d procs still running)",
					now, s.running)
			}
			return s.maybeCheckpoint(now)
		}
	}
	if err := s.shardEx.Run(); err != nil {
		return nil, err
	}
	for _, np := range s.ports {
		s.running -= np.done
	}
	if s.running != 0 {
		return nil, fmt.Errorf("core: deadlock — event queues drained with %d processors unfinished\n%s",
			s.running, s.deadlockReport())
	}
	if n := s.vendor.Outstanding(); n != 0 {
		return nil, fmt.Errorf("core: %d TIDs issued but never retired", n)
	}
	s.mergePortStats()
	r := s.results()
	// Node-local sends bypassed the mesh; fold their accounting in now.
	for _, np := range s.ports {
		for c := 0; c < mesh.NumClasses; c++ {
			r.Traffic.BytesByClass[c] += np.localBytes[c]
			r.Traffic.MsgsByClass[c] += np.localMsgs[c]
		}
		r.Traffic.PerNodeBytes[np.node] += np.localNodeBytes
	}
	return r, nil
}

// mergeWindow is the serial phase between epochs: cross-node sends replay
// through the mesh in canonical (time, node, capture order) order, barrier
// and vendor bookkeeping applies, and buffered observer events flush in the
// same canonical order.
func (s *System) mergeWindow(start, end sim.Time, active []int) {
	// One sweep over the ports that ran this window (only they can have
	// captured anything — idle kernels dispatch no handlers) gathers
	// everything the window produced: the ports holding cross-node sends or
	// observer events, the barrier-arrival count, and the retired TIDs. The
	// per-cycle replay loops below then walk only the gathered ports, so an
	// epoch's merge cost scales with what actually happened, not with
	// cycles x nodes. Retirement is safe to interleave with the sweep —
	// Vendor.Retire is pure bookkeeping and never schedules events — but
	// barrier release must wait until after send delivery so kernel
	// sequence numbers are assigned in the same order the phased form
	// assigned them.
	sends := s.mergeSend[:0]
	events := s.mergeEvent[:0]
	for _, i := range active {
		np := s.ports[i]
		if len(np.out) > 0 {
			sends = append(sends, np)
		}
		if len(np.events) > 0 {
			events = append(events, np)
		}
		s.barrier.arrived += np.barriers
		np.barriers = 0
		for _, t := range np.retires {
			s.vendor.Retire(t)
		}
		np.retires = np.retires[:0]
	}
	s.mergeSend = sends[:0]
	s.mergeEvent = events[:0]

	// Cross-node sends. Replaying in nondecreasing time order makes the
	// serial link walk reserve mesh links exactly as an inline walk would
	// have; node order breaks same-cycle ties canonically (the gather sweep
	// visits ports in node order, so the filtered walk preserves it).
	if len(sends) > 0 {
		for t := start; t <= end; t++ {
			for _, np := range sends {
				for np.outCur < len(np.out) && np.out[np.outCur].t == t {
					s.deliverSend(&np.out[np.outCur])
					np.outCur++
				}
			}
		}
		for _, np := range sends {
			if np.outCur != len(np.out) {
				panic("core: sharded merge left captured sends undelivered")
			}
			np.out = np.out[:0]
			np.outCur = 0
		}
	}

	// Barrier release (the arrivals are commutative: only the count matters).
	if s.barrier.arrived >= s.cfg.Procs {
		s.barrier.arrived = 0
		for _, p := range s.procs {
			// Sequential mode releases one cycle after the last arrival;
			// here the window boundary is the deterministic stand-in.
			s.shardEx.Post(p.id, end+1, p, prBarrierRelease, 0, 0)
		}
	}

	// Observer events, in global (cycle, node, emission order) order.
	if len(events) > 0 && s.obsv != nil {
		for t := start; t <= end; t++ {
			tc := uint64(t)
			for _, np := range events {
				for np.eventCur < len(np.events) && np.events[np.eventCur].Cycle == tc {
					s.obsv.Event(np.events[np.eventCur])
					np.eventCur++
				}
			}
		}
		for _, np := range events {
			if np.eventCur != len(np.events) {
				panic("core: sharded merge left observer events unflushed")
			}
			np.events = np.events[:0]
			np.eventCur = 0
		}
	}
}

// deliverSend routes one captured cross-node message through the mesh link
// model and posts its arrival into the destination node's kernel. The
// payload snapshot moves from a sender-pool buffer to a destination-pool
// buffer so every pool stays single-owner. (Moving the buffer itself —
// adopting it into the destination's pool — measures worse: hotspot traffic
// is asymmetric, so donor pools drain and re-allocate faster than the
// one-line copy costs.)
func (s *System) deliverSend(e *sendEffect) {
	src, dst := int(e.msg.src), int(e.msg.dst)
	arrival := s.net.RouteAt(e.t, src, dst, s.cfg.size(e.msg.kind), class(e.msg.kind))
	dp := s.ports[dst]
	i, m := dp.allocMsg()
	*m = e.msg
	if e.msg.data != nil {
		b := dp.acquireBuf()
		copy(b, e.msg.data)
		m.data = b
		s.ports[src].releaseBuf(e.msg.data)
		e.msg.data = nil
	}
	s.shardEx.Post(dst, arrival, dp, portMsg, uint64(i), 0)
}

// mergePortStats folds the per-node statistics into the System aggregates
// results() reads, in node order; the commit log sorts by TID — the
// protocol's own canonical serialization order.
func (s *System) mergePortStats() {
	var endTime sim.Time
	for _, np := range s.ports {
		if now := np.k.Now(); now > endTime {
			endTime = now
		}
		s.totalCommits += np.commits
		s.totalViolations += np.violations
		s.committedInstr += np.instr
		for k := range np.msgCounts {
			s.msgCounts[k] += np.msgCounts[k]
		}
		for _, v := range np.txInstrH.Values() {
			s.txInstrH.Add(v)
		}
		for _, v := range np.rdSetH.Values() {
			s.rdSetH.Add(v)
		}
		for _, v := range np.wrSetH.Values() {
			s.wrSetH.Add(v)
		}
		for _, v := range np.dirsTouchedH.Values() {
			s.dirsTouchedH.Add(v)
		}
		s.commitLog = append(s.commitLog, np.commitLog...)
	}
	sort.Slice(s.commitLog, func(i, j int) bool { return s.commitLog[i].TID < s.commitLog[j].TID })
	s.endTime = endTime
}
