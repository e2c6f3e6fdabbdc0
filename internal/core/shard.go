package core

import (
	"cmp"
	"fmt"
	"slices"

	"scalabletcc/internal/obs"
	"scalabletcc/internal/sim"
	"scalabletcc/internal/tid"
	"scalabletcc/internal/workload"
)

// The epoch engine (Config.Shards >= 1).
//
// The machine runs on the System's one kernel in windows of HopLatency
// cycles. Inside a window every handler runs exactly as in sequential mode,
// but whatever would let one node observe another within the window waits
// in the window buffer for the boundary:
//
//   - cross-node protocol messages, captured by value (data buffer
//     included) in execution order;
//   - observer events, stamped with the executing cycle;
//   - barrier arrivals, TID retirements and finished processors (their
//     order is commutative; only the counts and the set matter).
//
// Node-local messages take the sequential path: the mesh only counts their
// traffic and delivers them one cycle later. Statistics and the commit
// log go straight into the System aggregates; the log is sorted by TID,
// the protocol's own serialization order, when the run ends.
//
// At each window boundary the merge routes the captured sends through the
// mesh link model in (time, source node, capture) order, applies the
// barrier and vendor bookkeeping, and flushes the observer events in
// (cycle, node, emission) order. The window structure and both orders are
// functions of simulated behaviour alone, so the outcome is bit-identical
// for every Shards value.
//
// The lookahead argument: a cross-node message sent at time t occupies at
// least one cycle per link and travels at least one hop, so it arrives at
// t + HopLatency + occupancy >= t + L + 1 — strictly after the window
// [T, T+L-1] containing t. Inside a window no node can therefore affect
// another, so how the kernel interleaves different nodes' events within a
// window is unobservable (DESIGN.md §31).

// sendEffect is one captured cross-node message: the record by value, with
// msg.data owning its pooled payload buffer until the merge moves it into
// the delivered message.
type sendEffect struct {
	t   sim.Time
	msg protoMsg
}

// window is what the current window defers to its boundary.
type window struct {
	sends    []sendEffect
	events   []obs.Event
	barriers int       // barrier arrivals
	retires  []tid.TID // TIDs retired
	done     int       // processors finished
}

// empty reports whether the window buffer holds nothing — true at every
// window boundary, the engine's quiescent cut.
func (w *window) empty() bool {
	return len(w.sends) == 0 && len(w.events) == 0 && w.barriers == 0 && len(w.retires) == 0 && w.done == 0
}

// premapProgram freezes the first-touch page map by walking the whole
// program in canonical (phase, proc, tx, op) order before execution starts.
// Sequential mode homes pages at their true first access; the epoch engine
// fixes homing up front instead, so a page's home never depends on which
// node touches it first within a window — every runtime Home lookup is
// then a read-only hit.
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
	if !s.restored {
		s.running = s.cfg.Procs
		for _, p := range s.procs {
			s.kernel.Post(0, p, prStart, 0, 0)
		}
	}
	for {
		start, ok := s.kernel.Next()
		if !ok {
			break
		}
		// The window start, after the previous window's merge, is the
		// engine's quiescent cut.
		if s.cfg.MaxCycles > 0 && start > s.cfg.MaxCycles {
			return nil, fmt.Errorf("core: watchdog expired at cycle %d (%d procs still running)",
				start, s.running)
		}
		if s.kernel.Interrupted() {
			return nil, fmt.Errorf("core: %w at cycle %d", sim.ErrInterrupted, start)
		}
		if err := s.maybeCheckpoint(start); err != nil {
			return nil, err
		}
		end := start + s.cfg.Mesh.HopLatency - 1
		s.kernel.RunWindow(end)
		s.mergeWindow(end)
	}
	if s.running != 0 {
		return nil, fmt.Errorf("core: deadlock — event queue drained with %d processors unfinished\n%s",
			s.running, s.deadlockReport())
	}
	if n := s.vendor.Outstanding(); n != 0 {
		return nil, fmt.Errorf("core: %d TIDs issued but never retired", n)
	}
	slices.SortFunc(s.commitLog, func(a, b CommitRecord) int { return cmp.Compare(a.TID, b.TID) })
	s.endTime = s.kernel.Now()
	return s.results(), nil
}

// mergeWindow is the serial phase at the boundary of the window ending at
// end: bookkeeping first, then cross-node sends through the mesh, barrier
// release, and observer events. Sends are delivered before the releases are
// posted so kernel sequence numbers keep that order. Both buffers were
// filled in nondecreasing time, so the stable sorts only order each cycle's
// entries by node.
func (s *System) mergeWindow(end sim.Time) {
	w := s.win
	s.barrier.arrived += w.barriers
	w.barriers = 0
	for _, t := range w.retires {
		s.vendor.Retire(t)
	}
	w.retires = w.retires[:0]
	s.running -= w.done
	w.done = 0

	// Replaying in nondecreasing time order makes the serial link walk
	// reserve mesh links exactly as an inline walk would have.
	slices.SortStableFunc(w.sends, func(a, b sendEffect) int {
		return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.msg.src, b.msg.src))
	})
	for i := range w.sends {
		e := &w.sends[i]
		arrival := s.net.RouteAt(e.t, int(e.msg.src), int(e.msg.dst), s.cfg.size(e.msg.kind), class(e.msg.kind))
		j, m := s.newMsg(e.msg.kind, int(e.msg.src), int(e.msg.dst))
		*m = e.msg
		s.kernel.Post(arrival, s, sysMsg, uint64(j), 0)
	}
	w.sends = w.sends[:0]

	if s.barrier.arrived >= s.cfg.Procs {
		s.barrier.arrived = 0
		for _, p := range s.procs {
			// Sequential mode releases one cycle after the last arrival;
			// here the window boundary is the deterministic stand-in.
			s.kernel.Post(end+1, p, prBarrierRelease, 0, 0)
		}
	}

	slices.SortStableFunc(w.events, func(a, b obs.Event) int {
		return cmp.Or(cmp.Compare(a.Cycle, b.Cycle), cmp.Compare(a.Node, b.Node))
	})
	for i := range w.events {
		s.obsv.Event(w.events[i])
	}
	w.events = w.events[:0]
}
