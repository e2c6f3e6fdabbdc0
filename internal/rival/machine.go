// Package rival is the machinery the rival protocols — tl2, eager and
// baseline — share, so each protocol package holds only what differs:
//
//   - Machine is the shell of a rival machine: kernel, program, the homes'
//     line stores, commit log, observer, phase barrier, run loop, run
//     digest and final-memory audit, plus the pooled request records and
//     home-side request pipeline of the mesh rivals (tl2 and eager).
//   - Thread is one processor's transaction driver: program position,
//     attempt epochs, local hits, miss completion, retirement, violation
//     accounting and backoff, plus the per-attempt line table and home
//     grouping of the mesh rivals.
//
// Everything is scheduled as typed kernel events (sim.Handler). A protocol
// processor embeds a Thread and implements Protocol; its HandleEvent passes
// every event to Thread.Handle first, which runs the driver's opcodes.
package rival

import (
	"fmt"

	"scalabletcc/internal/bits"
	"scalabletcc/internal/core"
	"scalabletcc/internal/mem"
	"scalabletcc/internal/mesh"
	"scalabletcc/internal/obs"
	"scalabletcc/internal/sim"
	"scalabletcc/internal/stats"
	"scalabletcc/internal/verify"
	"scalabletcc/internal/workload"
)

// Message sizing on the mesh: a header-only message (requests, acks, NACKs,
// clock and TID operations) and the per-line address inside batched
// messages.
const (
	MsgHdr   = 16
	LineAddr = 8
)

// Machine is the protocol-independent shell of a rival machine. A
// protocol's System embeds the Machine NewMachine builds before adding
// threads.
type Machine struct {
	Name   string      // protocol name, the prefix of run errors
	Cfg    core.Config // the shared machine: geometry, caches, latencies
	Kernel *sim.Kernel
	Prog   workload.Program
	Obsv   obs.Observer

	// Homes holds each home's lines and their memory words (mem.LineStore):
	// one store per node on a mesh rival, where Map homes the lines, and a
	// single one for the bus machine's shared memory.
	Homes []mem.LineStore

	// Mesh rivals only: the network, first-touch line homes, and the
	// Server that handles requests at their homes.
	Net    *mesh.Network
	Map    *mem.Map
	Server Server

	// msgs pools the mesh rivals' in-flight request records; msgFree lists
	// the free slots.
	msgs    []Msg
	msgFree []int32

	CollectLog bool
	CommitLog  []verify.Record

	Commits    uint64 // committed transactions
	Violations uint64 // aborted attempts
	Instr      uint64 // committed instructions

	threads []*Thread
	arrived int // processors at the phase barrier
	running int // processors not yet done
}

// NewMachine validates cfg and builds the shell of the rival machine name
// running prog on it: the kernel and the homes' line stores, plus, for a
// mesh rival (server != nil), the network and the first-touch home map prog
// premaps.
func NewMachine(name string, cfg core.Config, prog workload.Program, server Server) (Machine, error) {
	if err := cfg.ValidateFor(name); err != nil {
		return Machine{}, err
	}
	if prog.Procs() != cfg.Procs {
		return Machine{}, fmt.Errorf("%s: program built for %d procs, config has %d", name, prog.Procs(), cfg.Procs)
	}
	m := Machine{Name: name, Cfg: cfg, Kernel: &sim.Kernel{}, Prog: prog, Server: server}
	homes := 1
	if server != nil {
		m.Net = mesh.New(m.Kernel, cfg.Procs, cfg.Mesh)
		m.Map = mem.NewMap(cfg.Geometry, cfg.Procs)
		prog.PreMap(m.Map)
		homes = cfg.Procs
	}
	m.Homes = make([]mem.LineStore, homes)
	for i := range m.Homes {
		m.Homes[i] = mem.NewLineStore(cfg.Geometry)
	}
	return m, nil
}

// CollectCommitLog enables serializability logging.
func (m *Machine) CollectCommitLog(on bool) { m.CollectLog = on }

// Observe attaches a protocol-event observer (nil detaches). Must be called
// before Run; observation is passive.
func (m *Machine) Observe(o obs.Observer) { m.Obsv = o }

// Emit stamps the current cycle on e and hands it to the observer. Callers
// nil-check Obsv first.
func (m *Machine) Emit(e obs.Event) {
	e.Cycle = uint64(m.Kernel.Now())
	m.Obsv.Event(e)
}

// Interrupt stops Simulate at its next cycle boundary; it is safe to call
// from any goroutine.
func (m *Machine) Interrupt() { m.Kernel.Interrupt() }

// Simulate starts every processor at cycle 0 and runs the kernel dry. It
// fails if the Cfg.MaxCycles watchdog expires, Interrupt is called (the
// error wraps sim.ErrInterrupted), a processor never finishes, or a request
// record was never freed.
func (m *Machine) Simulate() error {
	maxCycles := m.Cfg.MaxCycles
	m.running = len(m.threads)
	for _, t := range m.threads {
		m.Kernel.Post(0, t.p, OpStart, 0, 0)
	}
	for m.Kernel.Pending() > 0 {
		if maxCycles > 0 && m.Kernel.Now() > maxCycles {
			return fmt.Errorf("%s: watchdog expired at cycle %d", m.Name, m.Kernel.Now())
		}
		if m.Kernel.Interrupted() {
			return fmt.Errorf("%s: %w at cycle %d", m.Name, sim.ErrInterrupted, m.Kernel.Now())
		}
		m.Kernel.StepCycle()
	}
	if m.running != 0 {
		return fmt.Errorf("%s: deadlock with %d processors unfinished", m.Name, m.running)
	}
	if n := len(m.msgs) - len(m.msgFree); n != 0 {
		return fmt.Errorf("%s: %d request records never freed", m.Name, n)
	}
	return nil
}

// Summary is the run's machine-independent digest: the clock, committed
// work, aborted attempts and the processors' summed cycle breakdowns. Call
// it after Simulate.
func (m *Machine) Summary() stats.Summary {
	s := stats.Summary{Protocol: m.Name, Cycles: uint64(m.Kernel.Now()),
		Instructions: m.Instr, Commits: m.Commits, Violations: m.Violations}
	for _, t := range m.threads {
		s.Breakdown = s.Breakdown.Plus(t.Breakdown)
	}
	return s
}

// barrierArrive counts a processor into the phase barrier; the last arrival
// releases everyone one cycle later.
func (m *Machine) barrierArrive() {
	m.arrived++
	if m.arrived < len(m.threads) {
		return
	}
	m.arrived = 0
	for _, t := range m.threads {
		m.Kernel.PostAfter(1, t.p, OpBarrierRelease, 0, 0)
	}
}

// Log appends a commit record; r is nil when the log is off.
func (m *Machine) Log(r *verify.Record) {
	if r != nil {
		m.CommitLog = append(m.CommitLog, *r)
	}
}

// AuditFinalMemory cross-checks memory against the TID-serial replay of the
// commit log: every rival commits write-through, so every word the replay
// says was written must hold that version at its home. Requires
// CollectCommitLog.
func (m *Machine) AuditFinalMemory() error {
	if !m.CollectLog {
		return fmt.Errorf("%s: AuditFinalMemory requires CollectCommitLog", m.Name)
	}
	g := m.Cfg.Geometry
	for _, w := range verify.FinalMemory(m.CommitLog) {
		home := 0
		if m.Map != nil {
			// An unmapped page has no line in any store: got stays 0.
			home, _ = m.Map.HomeIfMapped(w.Addr)
		}
		var got mem.Version
		if id, ok := m.Homes[home].Lookup(g.Line(w.Addr)); ok {
			got = m.Homes[home].Words(id)[g.WordIndex(w.Addr)]
		}
		if got != w.Version {
			return fmt.Errorf("%s: final memory mismatch at %#x: memory has version %d, replay requires %d",
				m.Name, uint64(w.Addr), uint64(got), uint64(w.Version))
		}
	}
	return nil
}

// Server is a mesh rival's home side: it serves request record i once the
// home's metadata access is done. Serve frees the record unless it hands
// it on (ReplyData).
type Server interface {
	Serve(i int32)
}

// Msg is one pooled home-bound request of a mesh rival, allocated at send
// and freed by the delivery that ends it. A read request becomes its own
// data reply, which the requester frees (stale or not); every other request
// ends at its home. Group requests own copies of their bases and masks: the
// sender's group scratch is reused by its next attempt while
// fire-and-forget requests are still in flight. Kind is protocol-defined.
type Msg struct {
	Kind    uint8
	Proc    int
	Home    int
	Group   int             // lock requests: the requester's group index
	Addr    mem.Addr        // word requests: the word accessed
	CachedV mem.Version     // reads: the requester's cached version
	Valid   bool            // reads: the requester holds a copy
	Version mem.Version     // read replies: the line's version; commits: the committer's
	Data    []mem.Version   // read replies: line snapshot
	Bases   []mem.Addr      // group requests: the lines
	Masks   []bits.WordMask // commit requests: written words per line
}

// Machine opcodes: the mesh rivals' home-side request pipeline.
const (
	mArrive uint32 = iota // a1 = record: a request reached its home; pay DirLatency
	mServe                // a1 = record: hand it to the Server
	mData                 // a1 = record: memory read done, send the data reply
)

// HandleEvent runs the home-side request pipeline.
func (m *Machine) HandleEvent(code uint32, a1, a2 uint64) {
	switch code {
	case mArrive:
		m.Kernel.PostAfter(m.Cfg.DirLatency, m, mServe, a1, 0)
	case mServe:
		m.Server.Serve(int32(a1))
	case mData:
		r := &m.msgs[a1]
		t := m.threads[r.Proc]
		m.Net.SendEvent(r.Home, t.ID, MsgHdr+m.Cfg.Geometry.LineSize, mesh.ClassMiss, t.p, OpReadData, t.Epoch, a1)
	default:
		panic(m.Name + ": unknown machine event")
	}
}

// newMsg allocates a request record from proc to home, reusing a freed
// record's slices for capacity. The pointer is valid until the next newMsg.
func (m *Machine) newMsg(kind uint8, proc, home int) (int32, *Msg) {
	var i int32
	if n := len(m.msgFree); n > 0 {
		i = m.msgFree[n-1]
		m.msgFree = m.msgFree[:n-1]
	} else {
		m.msgs = append(m.msgs, Msg{})
		i = int32(len(m.msgs) - 1)
	}
	r := &m.msgs[i]
	r.Kind, r.Proc, r.Home = kind, proc, home
	r.Bases, r.Masks = r.Bases[:0], r.Masks[:0]
	return i, r
}

// Msg returns request record i.
func (m *Machine) Msg(i int32) *Msg { return &m.msgs[i] }

// FreeMsg returns request record i to the pool.
func (m *Machine) FreeMsg(i int32) { m.msgFree = append(m.msgFree, i) }

// Reply sends a header-only answer from node from to processor proc,
// guarded by the processor's current epoch.
func (m *Machine) Reply(from, proc int, class mesh.Class, code uint32, arg uint64) {
	t := m.threads[proc]
	m.Net.SendEvent(from, proc, MsgHdr, class, t.p, code, t.Epoch, arg)
}

// ReplyData answers read request i with a line's words and its version v:
// the words are snapshotted now, together with v, so a later write-back
// cannot slip between the check and the read, and the data reply leaves
// after the memory access. The record lives on as the reply.
func (m *Machine) ReplyData(i int32, words []mem.Version, v mem.Version) {
	r := &m.msgs[i]
	r.Data = append(r.Data[:0], words...)
	r.Version = v
	m.Kernel.PostAfter(m.Cfg.MemLatency, m, mData, uint64(i), 0)
}
