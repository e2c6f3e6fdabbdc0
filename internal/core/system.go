package core

import (
	"fmt"
	"math"

	"scalabletcc/internal/bits"
	"scalabletcc/internal/cache"
	"scalabletcc/internal/mem"
	"scalabletcc/internal/mesh"
	"scalabletcc/internal/obs"
	"scalabletcc/internal/sim"
	"scalabletcc/internal/stats"
	"scalabletcc/internal/tape"
	"scalabletcc/internal/tid"
	"scalabletcc/internal/verify"
	"scalabletcc/internal/workload"
)

// CommitRecord is the per-transaction footprint fed to the serializability
// oracle.
type CommitRecord = verify.Record

// System is an assembled Scalable TCC machine: one node per processor, each
// with a TCC processor, a private cache hierarchy, a directory slice with
// its memory bank, all connected by a 2-D mesh; node 0 hosts the global TID
// vendor.
type System struct {
	cfg     Config
	kernel  *sim.Kernel
	net     *mesh.Network
	addrMap *mem.Map
	procs   []*Processor
	dirs    []*Directory
	barrier *barrier

	// win, non-nil under the epoch engine (Config.Shards >= 1), holds what
	// the current window defers to its boundary. See shard.go.
	win *window

	vendor     *tid.Vendor
	vendorNode int

	prog    workload.Program
	running int

	// Checkpoint machinery (snapshot.go). restored marks a System rebuilt
	// from a Checkpoint: Run then resumes the pending event set instead of
	// posting the program starts. ckFn, when set by RunCheckpointed,
	// receives a snapshot at each quiescent cut past ckNext.
	restored bool
	ckEvery  sim.Time
	ckNext   sim.Time
	ckFn     func(*Checkpoint) error

	collectLog bool
	commitLog  []CommitRecord

	// obsv, when non-nil, receives one typed obs.Event per protocol action.
	// Every emission site nil-checks it first, so a machine without an
	// observer pays nothing on the hot path.
	obsv obs.Observer

	// aud, when non-nil, re-checks protocol invariants continuously at the
	// state-transition hooks (see auditor.go). Same nil-gated idiom as obsv.
	aud *Auditor

	// Periodic time-series sampler (EnableSampler).
	sampleEvery  sim.Time
	prevDirBusy  uint64
	prevLinkBusy []sim.Time

	// tape, when non-nil, attributes violations to the lines and committers
	// that caused them (§3.3's TAPE profiling environment).
	tape *tape.Profiler

	// msgCounts tallies every protocol message sent, by kind.
	msgCounts [NumMsgKinds]uint64

	// Message and line-buffer pools for the typed dispatch hot path
	// (dispatch.go). msgs is the slab of in-flight protocol messages,
	// msgFree/bufFree are free lists.
	msgs    []protoMsg
	msgFree []int32
	bufFree [][]mem.Version

	// touched is reusable scratch for noteCommit's directories-per-commit
	// count.
	touched bits.NodeSet

	// Aggregate measurement (Table 3 / Figures 6-9).
	totalCommits    uint64
	totalViolations uint64
	committedInstr  uint64
	txInstrH        stats.Histogram
	rdSetH          stats.Histogram // bytes
	wrSetH          stats.Histogram // bytes
	dirsTouchedH    stats.Histogram
	endTime         sim.Time
}

// NewSystem builds a machine running prog under cfg.
func NewSystem(cfg Config, prog workload.Program) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if prog.Procs() != cfg.Procs {
		return nil, fmt.Errorf("core: program built for %d procs, config has %d", prog.Procs(), cfg.Procs)
	}
	s := &System{
		cfg:        cfg,
		kernel:     &sim.Kernel{},
		addrMap:    mem.NewMap(cfg.Geometry, cfg.Procs),
		vendor:     tid.NewVendor(),
		vendorNode: 0,
		prog:       prog,
	}
	s.net = mesh.New(s.kernel, cfg.Procs, cfg.Mesh)
	s.barrier = &barrier{sys: s}
	s.dirs = make([]*Directory, cfg.Procs)
	s.procs = make([]*Processor, cfg.Procs)
	for i := 0; i < cfg.Procs; i++ {
		s.dirs[i] = newDirectory(s, i)
		s.procs[i] = newProcessor(s, i, prog)
	}
	prog.PreMap(s.addrMap)
	if cfg.Shards > 0 {
		s.win = &window{}
		s.premapProgram()
	}
	return s, nil
}

// CollectCommitLog enables commit-footprint logging for the serializability
// oracle (memory-heavy; off by default).
func (s *System) CollectCommitLog(on bool) { s.collectLog = on }

// EnableTape attaches a TAPE conflict profiler and returns it. Must be
// called before Run.
func (s *System) EnableTape() *tape.Profiler {
	if s.tape == nil {
		s.tape = tape.New()
	}
	return s.tape
}

// Tape returns the attached profiler, or nil.
func (s *System) Tape() *tape.Profiler { return s.tape }

// Kernel exposes the simulation kernel (tests drive partial runs with it).
func (s *System) Kernel() *sim.Kernel { return s.kernel }

// Directory returns node i's directory controller.
func (s *System) Directory(i int) *Directory { return s.dirs[i] }

// Processor returns node i's processor.
func (s *System) Processor(i int) *Processor { return s.procs[i] }

// Observe attaches a protocol-event observer (nil detaches). Must be called
// before Run; observation is passive and never changes simulated behaviour.
func (s *System) Observe(o obs.Observer) { s.obsv = o }

// Observer returns the attached observer, or nil.
func (s *System) Observer() obs.Observer { return s.obsv }

// emit stamps the current cycle on e and hands it to the observer. Callers
// must nil-check s.obsv first so event construction stays off the
// no-observer hot path. Every emission site sets e.Node to the executing
// node, which is what lets the epoch engine buffer the event and flush it
// in (cycle, node, emission) order at the window boundary.
func (s *System) emit(e obs.Event) {
	e.Cycle = uint64(s.kernel.Now())
	if s.win != nil {
		s.win.events = append(s.win.events, e)
		return
	}
	s.obsv.Event(e)
}

// obsData snapshots a line payload for an event.
func obsData(v []mem.Version) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = uint64(x)
	}
	return out
}

// EnableSampler schedules a periodic time-series sample every cycles
// simulated cycles. The attached observer must implement obs.SampleObserver;
// call after Observe and before Run. Sampling is read-only and preserves the
// relative order of all protocol events, but a run's reported cycle count
// may round up to the final sampling tick.
func (s *System) EnableSampler(every sim.Time) error {
	if every <= 0 {
		return fmt.Errorf("core: sampler interval must be positive, got %d", every)
	}
	if _, ok := s.obsv.(obs.SampleObserver); !ok {
		return fmt.Errorf("core: the attached observer does not accept samples (obs.SampleObserver)")
	}
	s.sampleEvery = every
	return nil
}

// sampleTick snapshots the protocol backpressure signals — directory NSTID
// lag, outstanding marks, directory-cache occupancy, per-link mesh
// utilization — and reschedules itself while the run is still producing
// events (so a drained kernel still terminates Run's loop).
func (s *System) sampleTick() {
	so, ok := s.obsv.(obs.SampleObserver)
	if !ok {
		return
	}
	interval := uint64(s.sampleEvery)
	smp := obs.Sample{Cycle: uint64(s.kernel.Now())}

	var busy uint64
	nstidMin, nstidMax := ^uint64(0), uint64(0)
	for _, d := range s.dirs {
		n := uint64(d.nstid)
		if n < nstidMin {
			nstidMin = n
		}
		if n > nstidMax {
			nstidMax = n
		}
		smp.Marks += len(d.markedLines)
		if s.cfg.DirCacheEntries > 0 {
			smp.DirEntries += d.dirCache.n
		} else {
			smp.DirEntries += d.entryCount()
		}
		busy += d.stats.BusyCycles
	}
	smp.NSTIDMin, smp.NSTIDMax = nstidMin, nstidMax
	smp.TIDNext = s.vendor.Issued() + 1
	if smp.TIDNext > nstidMin {
		smp.LagMax = smp.TIDNext - nstidMin
	}
	smp.DirBusy = round4(float64(busy-s.prevDirBusy) / float64(uint64(s.cfg.Procs)*interval))
	s.prevDirBusy = busy

	lb := s.net.LinkBusy()
	if s.prevLinkBusy == nil {
		s.prevLinkBusy = make([]sim.Time, len(lb))
	}
	smp.LinkUtil = make([]float64, len(lb))
	for i, b := range lb {
		smp.LinkUtil[i] = round4(float64(b-s.prevLinkBusy[i]) / float64(interval))
		s.prevLinkBusy[i] = b
	}
	so.Sample(smp)
	if s.kernel.Pending() > 0 {
		s.kernel.PostAfter(s.sampleEvery, s, sysSample, 0, 0)
	}
}

// round4 keeps sampled ratios stable across platforms (4 decimal places is
// plenty for a utilization time-series and avoids float formatting noise in
// the JSONL determinism guarantee).
func round4(x float64) float64 { return math.Round(x*1e4) / 1e4 }

// vendorIssue services a TID request arriving at the vendor node.
func (s *System) vendorIssue(requester int) {
	t := s.vendor.Issue(requester)
	if s.obsv != nil {
		s.emit(obs.Event{Kind: obs.KTIDGrant, Node: s.vendorNode, Peer: requester, TID: uint64(t)})
	}
	i, m := s.newMsg(MsgTIDResp, s.vendorNode, requester)
	m.t = t
	s.sendMsg(i)
}

// vendorRetire retires a TID. Sequentially it applies immediately; the
// epoch engine defers it to the window boundary (retire order is
// commutative — TIDs are unique and never reissued).
func (s *System) vendorRetire(t tid.TID) {
	if s.win != nil {
		s.win.retires = append(s.win.retires, t)
		return
	}
	s.vendor.Retire(t)
}

// logCommit appends r to the commit log when it is collected. The epoch
// engine's log is in window order until the run sorts it by TID.
func (s *System) logCommit(r CommitRecord) {
	if s.collectLog {
		s.commitLog = append(s.commitLog, r)
	}
}

// noteCommit aggregates the Table 3 fingerprint of a committed transaction.
func (s *System) noteCommit(p *Processor, instr uint64) {
	s.totalCommits++
	s.committedInstr += instr
	s.txInstrH.Add(instr)
	s.rdSetH.Add(uint64(p.readSet.Len() * s.cfg.Geometry.WordSize))
	var wrWords int
	s.touched.Reset()
	for _, d := range p.writeDirs {
		s.touched.Set(d)
		for _, wl := range p.writeLines[d] {
			wrWords += wl.words.Count()
		}
	}
	p.sharingVec.ForEach(func(d int) { s.touched.Set(d) })
	s.wrSetH.Add(uint64(wrWords * s.cfg.Geometry.WordSize))
	s.dirsTouchedH.Add(uint64(s.touched.Count()))
}

func (s *System) noteViolation() { s.totalViolations++ }

// procDone counts a finished processor; the epoch engine applies the count
// at the window boundary.
func (s *System) procDone() {
	if s.win != nil {
		s.win.done++
		return
	}
	s.running--
}

// barrier is the inter-phase barrier manager; idle time is accounted at the
// waiting processors.
type barrier struct {
	sys     *System
	arrived int
}

func (b *barrier) arrive(node int) {
	s := b.sys
	if s.obsv != nil {
		s.emit(obs.Event{Kind: obs.KBarrier, Node: node, Peer: -1, Arg: int64(s.procs[node].progPhase)})
	}
	if s.win != nil {
		// Arrival counts are commutative; the window merge tallies them and
		// posts the releases at the window boundary.
		s.win.barriers++
		return
	}
	b.arrived++
	if b.arrived < s.cfg.Procs {
		return
	}
	b.arrived = 0
	for _, p := range s.procs {
		s.kernel.PostAfter(1, p, prBarrierRelease, 0, 0)
	}
}

// Results summarizes a completed run.
type Results struct {
	Cycles sim.Time

	Breakdown  stats.Breakdown // aggregate over processors
	PerProc    []ProcStats
	Commits    uint64
	Violations uint64
	Instr      uint64 // committed instructions

	Traffic mesh.Stats

	// Table 3 fingerprint (90th percentiles).
	TxInstrP90       uint64
	RdSetBytesP90    uint64
	WrSetBytesP90    uint64
	DirsPerCommitP90 uint64
	DirOccupancyP90  uint64 // busy cycles per serviced commit
	DirWorkingSetP90 uint64 // entries with remote sharers

	// Substrate health.
	CacheStats     cache.Stats // summed over processors
	DroppedWBs     uint64
	StalledLoads   uint64
	Forwards       uint64
	DirCacheMisses uint64

	// MsgCounts tallies every protocol message sent, indexed by MsgKind —
	// the Table 1 vocabulary as observed counts.
	MsgCounts [NumMsgKinds]uint64

	CommitLog []CommitRecord
}

// Speedup returns base's cycle count divided by r's.
func (r *Results) Speedup(base *Results) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(r.Cycles)
}

// Summary returns the machine-independent digest every protocol reports
// (ProtocolResults.Summary).
func (r *Results) Summary() stats.Summary {
	return stats.Summary{
		Protocol:     "tcc",
		Cycles:       uint64(r.Cycles),
		Instructions: r.Instr,
		Commits:      r.Commits,
		Violations:   r.Violations,
		Breakdown:    r.Breakdown,
	}
}

// BytesPerInstr returns total remote traffic per committed instruction, the
// Figure 9 metric.
func (r *Results) BytesPerInstr() float64 {
	if r.Instr == 0 {
		return 0
	}
	return float64(r.Traffic.TotalBytes()) / float64(r.Instr)
}

// ClassBytesPerInstr returns one traffic class per committed instruction.
func (r *Results) ClassBytesPerInstr(c mesh.Class) float64 {
	if r.Instr == 0 {
		return 0
	}
	return float64(r.Traffic.BytesByClass[c]) / float64(r.Instr)
}

// Run executes the program to completion and gathers results. It fails if
// the watchdog expires, Interrupt is called, or the simulation wedges (an
// event-drained kernel with unfinished processors indicates a protocol
// deadlock).
func (s *System) Run() (*Results, error) {
	if s.win != nil {
		return s.runSharded()
	}
	if !s.restored {
		s.running = s.cfg.Procs
		for _, p := range s.procs {
			s.kernel.Post(0, p, prStart, 0, 0)
		}
		if s.sampleEvery > 0 {
			s.kernel.Post(s.sampleEvery, s, sysSample, 0, 0)
		}
	}
	// Batch dispatch: StepCycle drains each simulated cycle's events in one
	// pass, so the watchdog and interrupt checks run per cycle rather than
	// per event. The loop boundary is a quiescent cut — where checkpoints
	// are taken.
	for s.kernel.Pending() > 0 {
		if s.cfg.MaxCycles > 0 && s.kernel.Now() > s.cfg.MaxCycles {
			return nil, fmt.Errorf("core: watchdog expired at cycle %d (%d procs still running)",
				s.kernel.Now(), s.running)
		}
		if s.kernel.Interrupted() {
			return nil, fmt.Errorf("core: %w at cycle %d", sim.ErrInterrupted, s.kernel.Now())
		}
		s.kernel.StepCycle()
		if s.aud != nil && s.aud.err != nil {
			return nil, s.aud.err
		}
		if err := s.maybeCheckpoint(s.kernel.Now()); err != nil {
			return nil, err
		}
	}
	if s.running != 0 {
		return nil, fmt.Errorf("core: deadlock — event queue drained with %d processors unfinished\n%s",
			s.running, s.deadlockReport())
	}
	if n := s.vendor.Outstanding(); n != 0 {
		return nil, fmt.Errorf("core: %d TIDs issued but never retired", n)
	}
	if s.aud != nil {
		if err := s.aud.final(); err != nil {
			return nil, err
		}
	}
	s.endTime = s.kernel.Now()
	return s.results(), nil
}

// Interrupt stops a run in progress at its next cycle boundary; Run then
// returns an error wrapping sim.ErrInterrupted. It is safe to call from any
// goroutine, and a call before Run stops it at its first cut.
func (s *System) Interrupt() { s.kernel.Interrupt() }

// deadlockReport renders processor and directory state for debugging a
// wedged simulation.
func (s *System) deadlockReport() string {
	out := ""
	for _, p := range s.procs {
		out += fmt.Sprintf("  proc %d: phase=%d tid=%d waitingTID=%v pendW=%d pendR=%d refills=%d fills=%v opIdx=%d/%d tx=%d.%d attempt=%d\n",
			p.id, p.phase, p.tid, p.waitingTID, p.pendWriteN, p.pendReadN,
			p.refillCount, p.fills, p.opIdx, len(p.ops), p.progPhase, p.txIdx, p.attempt)
	}
	for _, d := range s.dirs {
		out += fmt.Sprintf("  dir %d: nstid=%d commitBusy=%v acks=%d flushes=%d probes=%d stalled=%d doneBits=%d\n",
			d.node, d.nstid, d.commitBusy, d.commitAcks, d.commitFlushes,
			len(d.probes), len(d.stalls), d.done.PopCount())
	}
	return out
}

func (s *System) results() *Results {
	r := &Results{
		MsgCounts:  s.msgCounts,
		Cycles:     s.endTime,
		Commits:    s.totalCommits,
		Violations: s.totalViolations,
		Instr:      s.committedInstr,
		Traffic:    s.net.Stats(),
		CommitLog:  s.commitLog,

		TxInstrP90:       s.txInstrH.Percentile(90),
		RdSetBytesP90:    s.rdSetH.Percentile(90),
		WrSetBytesP90:    s.wrSetH.Percentile(90),
		DirsPerCommitP90: s.dirsTouchedH.Percentile(90),
	}
	for _, p := range s.procs {
		ps := p.Stats()
		r.PerProc = append(r.PerProc, ps)
		r.Breakdown = r.Breakdown.Plus(ps.Breakdown)
		cs := p.cache.Stats()
		r.CacheStats.Hits += cs.Hits
		r.CacheStats.Misses += cs.Misses
		r.CacheStats.Evictions += cs.Evictions
		r.CacheStats.DirtyEvicts += cs.DirtyEvicts
		r.CacheStats.Spills += cs.Spills
		r.CacheStats.Invalidations += cs.Invalidations
		if cs.MaxOverflow > r.CacheStats.MaxOverflow {
			r.CacheStats.MaxOverflow = cs.MaxOverflow
		}
	}
	var occ, ws stats.Histogram
	for _, d := range s.dirs {
		ds := d.Stats()
		r.DroppedWBs += ds.DroppedWBs
		r.StalledLoads += ds.LoadsStalled
		r.Forwards += ds.Forwards
		r.DirCacheMisses += ds.DirCacheMisses
		for _, v := range d.occHist.Values() {
			occ.Add(v)
		}
		for _, v := range d.wsHist.Values() {
			ws.Add(v)
		}
	}
	r.DirOccupancyP90 = occ.Percentile(90)
	r.DirWorkingSetP90 = ws.Percentile(90)
	return r
}
