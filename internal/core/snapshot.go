package core

import (
	"encoding/json"
	"fmt"
	"sort"

	"scalabletcc/internal/bits"
	"scalabletcc/internal/cache"
	"scalabletcc/internal/mem"
	"scalabletcc/internal/mesh"
	"scalabletcc/internal/sim"
	"scalabletcc/internal/tid"
	"scalabletcc/internal/workload"
)

// Kernel-level checkpoints: a versioned snapshot of the full simulator state,
// taken at a quiescent cut, from which a fresh System replays the remainder
// of the run byte-identically.
//
// A quiescent cut is a point where the kernel is between dispatch batches:
// sequentially, between StepCycle iterations of Run's loop; under the epoch
// engine, at the start of a window, after the previous window's merge
// drained the window buffer. At such a cut all in-flight protocol messages
// are pool records referenced by exactly one pending event — a sysMsg
// arrival, a dirExec pipeline stage, or a prepared dirMemReady response — so
// the snapshot inlines each message payload into its event record and the
// restore re-allocates pool slots in event order, rewriting the event
// argument to the new slot. Both engines use the same layout: one kernel
// clock and the System aggregates; Sharded records which engine wrote it.
//
// The snapshot captures only *observable* state. Allocator layout — pool
// free-list order, slab capacities, slot numbers, arena watermarks, cache
// block-allocation order — is excluded throughout: none of it affects which
// event, victim, or line any future step chooses, so a restored System is
// behaviourally identical without being bit-identical in memory. Features
// that hold state outside this snapshot (the invariant auditor, TAPE
// profiling, the periodic sampler's link-busy baseline) are rejected for
// checkpointable runs.

// Checkpoint schema identification.
const (
	KernelCheckpointSchema  = "scalabletcc/kernel-checkpoint"
	KernelCheckpointVersion = 1
)

// KernelClock is the kernel's clock state.
type KernelClock struct {
	Now  sim.Time `json:"now"`
	Seq  uint64   `json:"seq"`
	NRun uint64   `json:"nrun"`
}

// MsgState is one in-flight protocol message, inlined into the event that
// references it.
type MsgState struct {
	Kind   MsgKind       `json:"kind"`
	Src    int32         `json:"src"`
	Dst    int32         `json:"dst"`
	Addr   mem.Addr      `json:"addr,omitempty"`
	T      tid.TID       `json:"t,omitempty"`
	T2     tid.TID       `json:"t2,omitempty"`
	Words  bits.WordMask `json:"words,omitempty"`
	Words2 bits.WordMask `json:"words2,omitempty"`
	Data   []mem.Version `json:"data,omitempty"`
	Flag   bool          `json:"flag,omitempty"`
}

// EventState is one pending kernel event. Handler identity is (Handler,
// Node): "sys" is the System mesh handler, "proc"/"dir" name a node's
// component. Events whose a1 is a message-pool index carry the message inline
// in Msg; their A1 is rewritten at restore.
type EventState struct {
	// Kernel is always 0, the System's one kernel.
	Kernel  int       `json:"kernel"`
	At      sim.Time  `json:"at"`
	Seq     uint64    `json:"seq"`
	Handler string    `json:"handler"`
	Node    int       `json:"node"`
	Code    uint32    `json:"code"`
	A1      uint64    `json:"a1,omitempty"`
	A2      uint64    `json:"a2,omitempty"`
	Msg     *MsgState `json:"msg,omitempty"`
}

// WriteLineState is one snapshot write-set line.
type WriteLineState struct {
	Base  mem.Addr      `json:"base"`
	Words bits.WordMask `json:"words"`
}

// WriteDirState is the write-set slice homed at one directory.
type WriteDirState struct {
	Dir   int              `json:"dir"`
	Lines []WriteLineState `json:"lines"`
}

// FillState is one line's in-flight fill-tracking record.
type FillState struct {
	Base   mem.Addr `json:"base"`
	Out    int      `json:"out,omitempty"`
	Kills  int      `json:"kills,omitempty"`
	Refill bool     `json:"refill,omitempty"`
}

// ProcState is one processor's full checkpoint state.
type ProcState struct {
	ProgPhase int `json:"prog_phase"`
	TxIdx     int `json:"tx_idx"`
	OpIdx     int `json:"op_idx"`

	Phase      int      `json:"phase"`
	Epoch      uint64   `json:"epoch"`
	TxStart    sim.Time `json:"tx_start"`
	MissStart  sim.Time `json:"miss_start"`
	MissLine   mem.Addr `json:"miss_line"`
	PendUseful uint64   `json:"pend_useful"`
	PendMiss   uint64   `json:"pend_miss"`
	Attempt    int      `json:"attempt"`

	ReadSet    []mem.ReadSample `json:"read_set,omitempty"`
	SharingVec []uint64         `json:"sharing_vec,omitempty"`
	WritingVec []uint64         `json:"writing_vec,omitempty"`

	TID          tid.TID  `json:"tid"`
	LastTID      tid.TID  `json:"last_tid"`
	WaitingTID   bool     `json:"waiting_tid,omitempty"`
	TidDisposals int      `json:"tid_disposals,omitempty"`
	KeepTID      bool     `json:"keep_tid,omitempty"`
	CommitStart  sim.Time `json:"commit_start"`

	WriteSet []WriteDirState `json:"write_set,omitempty"`

	// ValTok plus the directories still owing a write/read probe answer
	// (pendTokW[d] == valTok compressed to a dir list; stale tokens are
	// inert, so they need not survive).
	ValTok uint64 `json:"val_tok"`
	PendW  []int  `json:"pend_w,omitempty"`
	PendR  []int  `json:"pend_r,omitempty"`

	Fills       []FillState `json:"fills,omitempty"`
	RefillCount int         `json:"refill_count,omitempty"`

	IdleStart sim.Time  `json:"idle_start"`
	Stats     ProcStats `json:"stats"`

	Cache *cache.CacheState    `json:"cache"`
	L1    *cache.TagArrayState `json:"l1"`
}

// DirEntryState is one directory entry, in dense-id (first-touch) order.
type DirEntryState struct {
	Base        mem.Addr      `json:"base"`
	Sharers     []uint64      `json:"sharers,omitempty"`
	Owner       int           `json:"owner"`
	OwnerTID    tid.TID       `json:"owner_tid,omitempty"`
	OwnedWords  bits.WordMask `json:"owned_words,omitempty"`
	Marked      bool          `json:"marked,omitempty"`
	MarkWords   bits.WordMask `json:"mark_words,omitempty"`
	MarkData    []mem.Version `json:"mark_data,omitempty"`
	PendingFrom []int         `json:"pending_from,omitempty"`
}

// ProbeState is one deferred NSTID probe.
type ProbeState struct {
	T     tid.TID `json:"t"`
	Write bool    `json:"write,omitempty"`
	From  int     `json:"from"`
}

// PendingLoadState is one stalled load.
type PendingLoadState struct {
	Addr   mem.Addr `json:"addr"`
	From   int      `json:"from"`
	ReqTID tid.TID  `json:"req_tid,omitempty"`
}

// StallState is the stalled-load queue for one line base, in arrival order.
type StallState struct {
	Base  mem.Addr           `json:"base"`
	Loads []PendingLoadState `json:"loads"`
}

// DirCacheStamp is one bounded-directory-cache residency record.
type DirCacheStamp struct {
	Addr  mem.Addr `json:"addr"`
	Stamp uint64   `json:"stamp"`
}

// DirState is one directory controller's full checkpoint state, including
// its local memory bank.
type DirState struct {
	NSTID tid.TID  `json:"nstid"`
	Done  []uint64 `json:"done,omitempty"`

	Entries []DirEntryState `json:"entries,omitempty"`
	Memory  []mem.LineImage `json:"memory,omitempty"`

	MarkedLines      []mem.Addr `json:"marked_lines,omitempty"`
	MarkOwner        int        `json:"mark_owner"`
	CommitBusy       bool       `json:"commit_busy,omitempty"`
	CommitAcks       int        `json:"commit_acks,omitempty"`
	CommitFlushes    int        `json:"commit_flushes,omitempty"`
	PendingCommitTID tid.TID    `json:"pending_commit_tid,omitempty"`

	Probes   []ProbeState `json:"probes,omitempty"`
	ProbeMin tid.TID      `json:"probe_min,omitempty"`
	Stalls   []StallState `json:"stalls,omitempty"`
	NextFree sim.Time     `json:"next_free"`

	DirCache      []DirCacheStamp `json:"dir_cache,omitempty"`
	DirCacheClock uint64          `json:"dir_cache_clock,omitempty"`
	RemoteEntries int             `json:"remote_entries,omitempty"`

	Stats   DirStats `json:"stats"`
	OccHist []uint64 `json:"occ_hist,omitempty"`
	WsHist  []uint64 `json:"ws_hist,omitempty"`
	CurBusy uint64   `json:"cur_busy,omitempty"`
}

// Checkpoint is the full machine state at a quiescent cut.
type Checkpoint struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`

	NumProcs   int  `json:"procs"`
	Sharded    bool `json:"sharded,omitempty"`
	CollectLog bool `json:"collect_log,omitempty"`

	Kernels []KernelClock `json:"kernels"`
	Events  []EventState  `json:"events"`

	AddrMap []mem.PageHome `json:"addr_map"`
	Net     *mesh.Snapshot `json:"net"`

	VendorNext tid.TID           `json:"vendor_next"`
	VendorOut  []tid.Outstanding `json:"vendor_out,omitempty"`

	BarrierArrived int `json:"barrier_arrived,omitempty"`
	Running        int `json:"running"`

	Procs []ProcState `json:"proc_state"`
	Dirs  []DirState  `json:"dir_state"`
	// Ports is present only in checkpoints of the retired per-node layout,
	// which Restore refuses.
	Ports json.RawMessage `json:"port_state,omitempty"`

	MsgCounts    []uint64       `json:"msg_counts,omitempty"`
	Commits      uint64         `json:"commits,omitempty"`
	Violations   uint64         `json:"violations,omitempty"`
	Instr        uint64         `json:"instr,omitempty"`
	TxInstrH     []uint64       `json:"tx_instr_h,omitempty"`
	RdSetH       []uint64       `json:"rd_set_h,omitempty"`
	WrSetH       []uint64       `json:"wr_set_h,omitempty"`
	DirsTouchedH []uint64       `json:"dirs_touched_h,omitempty"`
	CommitLog    []CommitRecord `json:"commit_log,omitempty"`
}

// checkpointable reports whether this System's feature set can be snapshot.
func (s *System) checkpointable() error {
	switch {
	case s.aud != nil:
		return fmt.Errorf("core: checkpoints require the invariant auditor off (it mirrors pool state the snapshot does not carry)")
	case s.tape != nil:
		return fmt.Errorf("core: checkpoints require TAPE profiling off")
	case s.sampleEvery > 0:
		return fmt.Errorf("core: checkpoints require the occupancy sampler off (its state is not in the checkpoint)")
	}
	return nil
}

// eventCarriesMsg reports whether (handler, code) events carry a
// message-pool index in a1.
func eventCarriesMsg(handler string, code uint32) bool {
	switch handler {
	case "sys":
		return code == sysMsg
	case "dir":
		return code == dirExec || code == dirMemReady
	}
	return false
}

func msgState(m *protoMsg) *MsgState {
	ms := &MsgState{
		Kind: m.kind, Src: m.src, Dst: m.dst,
		Addr: m.addr, T: m.t, T2: m.t2,
		Words: m.words, Words2: m.words2, Flag: m.flag,
	}
	if m.data != nil {
		ms.Data = append([]mem.Version(nil), m.data...)
	}
	return ms
}

// installMsg allocates a pool slot and fills it from ms, returning the new
// index for the restored event's a1.
func (s *System) installMsg(ms *MsgState) (int32, error) {
	if ms.Kind < 0 || int(ms.Kind) >= NumMsgKinds {
		return 0, fmt.Errorf("core: restore message has unknown kind %d", ms.Kind)
	}
	if ms.Data != nil && len(ms.Data) != s.cfg.Geometry.WordsPerLine() {
		return 0, fmt.Errorf("core: restore message payload has %d words, want %d",
			len(ms.Data), s.cfg.Geometry.WordsPerLine())
	}
	i, m := s.newMsg(ms.Kind, int(ms.Src), int(ms.Dst))
	m.addr, m.t, m.t2 = ms.Addr, ms.T, ms.T2
	m.words, m.words2, m.flag = ms.Words, ms.Words2, ms.Flag
	if ms.Data != nil {
		m.data = s.copyLine(ms.Data)
	}
	return i, nil
}

// captureKernel records the kernel's clock and pending events into ck.
func (s *System) captureKernel(ck *Checkpoint) error {
	now, seq, nRun := s.kernel.Clock()
	ck.Kernels = []KernelClock{{Now: now, Seq: seq, NRun: nRun}}
	evs, err := s.kernel.PendingEvents()
	if err != nil {
		return fmt.Errorf("core: kernel: %w", err)
	}
	for _, ev := range evs {
		es := EventState{At: ev.At, Seq: ev.Seq, Code: ev.Code, A1: ev.A1, A2: ev.A2, Node: -1}
		switch h := ev.H.(type) {
		case *System:
			es.Handler = "sys"
		case *Processor:
			es.Handler, es.Node = "proc", h.id
		case *Directory:
			es.Handler, es.Node = "dir", h.node
		default:
			return fmt.Errorf("core: kernel holds an event for an unknown handler type %T", ev.H)
		}
		if eventCarriesMsg(es.Handler, es.Code) {
			es.Msg = msgState(&s.msgs[ev.A1])
			es.A1 = 0 // re-assigned to the restored pool slot
		}
		ck.Events = append(ck.Events, es)
	}
	return nil
}

// Snapshot captures the System's full state at a quiescent cut: between
// StepCycle batches (Run's loop boundary), or under the epoch engine at a
// window boundary. RunCheckpointed arranges both.
func (s *System) Snapshot() (*Checkpoint, error) {
	if err := s.checkpointable(); err != nil {
		return nil, err
	}
	ck := &Checkpoint{
		Schema:     KernelCheckpointSchema,
		Version:    KernelCheckpointVersion,
		NumProcs:   s.cfg.Procs,
		Sharded:    s.win != nil,
		CollectLog: s.collectLog,

		AddrMap: s.addrMap.Snapshot(),
		Net:     s.net.Snapshot(),

		BarrierArrived: s.barrier.arrived,
	}
	ck.VendorNext, ck.VendorOut = s.vendor.Snapshot()

	if s.win != nil && !s.win.empty() {
		return nil, fmt.Errorf("core: window buffer not drained — checkpoint cut is not at a window boundary")
	}
	if err := s.captureKernel(ck); err != nil {
		return nil, err
	}
	ck.Running = s.running
	ck.MsgCounts = append([]uint64(nil), s.msgCounts[:]...)
	ck.Commits = s.totalCommits
	ck.Violations = s.totalViolations
	ck.Instr = s.committedInstr
	ck.TxInstrH = append([]uint64(nil), s.txInstrH.Values()...)
	ck.RdSetH = append([]uint64(nil), s.rdSetH.Values()...)
	ck.WrSetH = append([]uint64(nil), s.wrSetH.Values()...)
	ck.DirsTouchedH = append([]uint64(nil), s.dirsTouchedH.Values()...)
	ck.CommitLog = append([]CommitRecord(nil), s.commitLog...)

	for _, p := range s.procs {
		ck.Procs = append(ck.Procs, p.snapshotState())
	}
	for _, d := range s.dirs {
		ck.Dirs = append(ck.Dirs, d.snapshotState())
	}
	return ck, nil
}

func (p *Processor) snapshotState() ProcState {
	ps := ProcState{
		ProgPhase: p.progPhase,
		TxIdx:     p.txIdx,
		OpIdx:     p.opIdx,

		Phase:      int(p.phase),
		Epoch:      p.epoch,
		TxStart:    p.txStart,
		MissStart:  p.missStart,
		MissLine:   p.missLine,
		PendUseful: p.pendUseful,
		PendMiss:   p.pendMiss,
		Attempt:    p.attempt,

		ReadSet:    append([]mem.ReadSample(nil), p.readSet.Samples()...),
		SharingVec: p.sharingVec.Words(),
		WritingVec: p.writingVec.Words(),

		TID:          p.tid,
		LastTID:      p.lastTID,
		WaitingTID:   p.waitingTID,
		TidDisposals: p.tidDisposals,
		KeepTID:      p.keepTID,
		CommitStart:  p.commitStart,

		ValTok: p.valTok,

		Fills:       make([]FillState, 0, len(p.fills)),
		RefillCount: p.refillCount,

		IdleStart: p.idleStart,
		Stats:     p.stats,

		Cache: p.cache.Snapshot(),
		L1:    p.l1.Snapshot(),
	}
	for _, d := range p.writeDirs {
		wd := WriteDirState{Dir: d}
		for _, wl := range p.writeLines[d] {
			wd.Lines = append(wd.Lines, WriteLineState{Base: wl.base, Words: wl.words})
		}
		ps.WriteSet = append(ps.WriteSet, wd)
	}
	for d := 0; d < len(p.pendTokW); d++ {
		if p.pendTokW[d] == p.valTok && p.valTok != 0 {
			ps.PendW = append(ps.PendW, d)
		}
		if p.pendTokR[d] == p.valTok && p.valTok != 0 {
			ps.PendR = append(ps.PendR, d)
		}
	}
	for _, f := range p.fills {
		ps.Fills = append(ps.Fills, FillState{Base: f.base, Out: f.out, Kills: f.kills, Refill: f.refill})
	}
	return ps
}

func (p *Processor) restoreState(ps *ProcState) error {
	if ps.Phase < int(phRunning) || ps.Phase > int(phDone) {
		return fmt.Errorf("core: proc %d restore has unknown phase %d", p.id, ps.Phase)
	}
	p.progPhase = ps.ProgPhase
	p.txIdx = ps.TxIdx
	p.ops = nil
	p.opIdx = ps.OpIdx
	p.phase = procPhase(ps.Phase)
	switch p.phase {
	case phRunning, phWaitLoad, phValidating:
		// The op stream is regenerated from the program rather than stored:
		// workloads are deterministic functions of (proc, phase, tx index).
		if p.progPhase < 0 || p.progPhase >= p.prog.Phases() {
			return fmt.Errorf("core: proc %d restore phase index %d outside program", p.id, p.progPhase)
		}
		if p.txIdx < 0 || p.txIdx >= p.prog.TxCount(p.id, p.progPhase) {
			return fmt.Errorf("core: proc %d restore tx index %d outside phase %d", p.id, p.txIdx, p.progPhase)
		}
		p.ops = p.prog.Tx(p.id, p.progPhase, p.txIdx).Ops
		if p.opIdx < 0 || p.opIdx > len(p.ops) {
			return fmt.Errorf("core: proc %d restore op index %d outside transaction (%d ops)", p.id, p.opIdx, len(p.ops))
		}
	}
	p.epoch = ps.Epoch
	p.txStart = ps.TxStart
	p.missStart = ps.MissStart
	p.missLine = ps.MissLine
	p.pendUseful = ps.PendUseful
	p.pendMiss = ps.PendMiss
	p.attempt = ps.Attempt

	if err := p.readSet.Restore(ps.ReadSet); err != nil {
		return fmt.Errorf("core: proc %d: %w", p.id, err)
	}
	p.sharingVec.LoadWords(ps.SharingVec)
	p.writingVec.LoadWords(ps.WritingVec)

	p.tid = ps.TID
	p.lastTID = ps.LastTID
	p.waitingTID = ps.WaitingTID
	p.tidDisposals = ps.TidDisposals
	p.keepTID = ps.KeepTID
	p.commitStart = ps.CommitStart

	prev := -1
	for _, wd := range ps.WriteSet {
		if wd.Dir < 0 || wd.Dir >= len(p.writeLines) || wd.Dir <= prev {
			return fmt.Errorf("core: proc %d restore write-set dir %d out of order or range", p.id, wd.Dir)
		}
		prev = wd.Dir
		p.writeDirs = append(p.writeDirs, wd.Dir)
		for _, wl := range wd.Lines {
			p.writeLines[wd.Dir] = append(p.writeLines[wd.Dir], writeLine{base: wl.Base, words: wl.Words})
		}
	}

	p.valTok = ps.ValTok
	for _, d := range ps.PendW {
		if d < 0 || d >= len(p.pendTokW) {
			return fmt.Errorf("core: proc %d restore pending write probe for dir %d", p.id, d)
		}
		p.pendTokW[d] = p.valTok
	}
	for _, d := range ps.PendR {
		if d < 0 || d >= len(p.pendTokR) {
			return fmt.Errorf("core: proc %d restore pending read probe for dir %d", p.id, d)
		}
		p.pendTokR[d] = p.valTok
	}
	p.pendWriteN = len(ps.PendW)
	p.pendReadN = len(ps.PendR)

	for _, f := range ps.Fills {
		p.fills = append(p.fills, fillTrack{base: f.Base, out: f.Out, kills: f.Kills, refill: f.Refill})
	}
	p.refillCount = ps.RefillCount

	p.idleStart = ps.IdleStart
	p.stats = ps.Stats

	if ps.Cache == nil || ps.L1 == nil {
		return fmt.Errorf("core: proc %d restore is missing cache state", p.id)
	}
	if err := p.cache.Restore(ps.Cache); err != nil {
		return fmt.Errorf("core: proc %d: %w", p.id, err)
	}
	if err := p.l1.Restore(ps.L1); err != nil {
		return fmt.Errorf("core: proc %d: %w", p.id, err)
	}
	return nil
}

func (d *Directory) snapshotState() DirState {
	ds := DirState{
		NSTID: d.nstid,
		Done:  d.done.Words(),

		Memory: d.memorySnapshot(),

		MarkedLines:      append([]mem.Addr(nil), d.markedLines...),
		MarkOwner:        d.markOwner,
		CommitBusy:       d.commitBusy,
		CommitAcks:       d.commitAcks,
		CommitFlushes:    d.commitFlushes,
		PendingCommitTID: d.pendingCommitTID,

		ProbeMin: d.probeMin,
		NextFree: d.nextFree,

		DirCacheClock: d.dirCache.clock,
		RemoteEntries: d.remoteEntries,

		Stats:   d.stats,
		OccHist: append([]uint64(nil), d.occHist.Values()...),
		WsHist:  append([]uint64(nil), d.wsHist.Values()...),
		CurBusy: d.curBusy,
	}
	if d.lines.Len() > 0 {
		ds.Entries = make([]DirEntryState, 0, d.lines.Len())
	}
	for id, base := range d.lines.Bases() {
		e := d.entryAt(int32(id))
		es := DirEntryState{
			Base:       base,
			Sharers:    e.sharers.Words(),
			Owner:      e.owner,
			OwnerTID:   e.ownerTID,
			OwnedWords: e.ownedWords,
			Marked:     e.marked,
			MarkWords:  e.markWords,
		}
		if e.markData != nil {
			es.MarkData = append([]mem.Version(nil), e.markData...)
		}
		if len(e.pendingFrom) > 0 {
			es.PendingFrom = append([]int(nil), e.pendingFrom...)
		}
		ds.Entries = append(ds.Entries, es)
	}
	for _, pr := range d.probes {
		ds.Probes = append(ds.Probes, ProbeState{T: pr.t, Write: pr.write, From: pr.from})
	}
	for _, sq := range d.stalls {
		ss := StallState{Base: sq.base}
		for _, pl := range sq.loads {
			ss.Loads = append(ss.Loads, PendingLoadState{Addr: pl.addr, From: pl.from, ReqTID: pl.reqTID})
		}
		ds.Stalls = append(ds.Stalls, ss)
	}
	// The list runs newest first, so walking it from the back gives stamp
	// order, a canonical serialization order: stamps are unique (the clock
	// increments per touch).
	if c := &d.dirCache; c.n > 0 {
		ds.DirCache = make([]DirCacheStamp, 0, c.n)
		for id := c.tail; id >= 0; id = c.link(id).prev {
			ds.DirCache = append(ds.DirCache, DirCacheStamp{Addr: d.lines.Bases()[id], Stamp: c.link(id).stamp})
		}
	}
	return ds
}

// memorySnapshot returns the memory bank's touched lines in first-touch
// order, their words sharing one allocation.
func (d *Directory) memorySnapshot() []mem.LineImage {
	if len(d.memOrder) == 0 {
		return nil
	}
	wpl := d.sys.cfg.Geometry.WordsPerLine()
	out := make([]mem.LineImage, len(d.memOrder))
	words := make([]mem.Version, len(out)*wpl)
	for i, id := range d.memOrder {
		w := words[i*wpl : (i+1)*wpl : (i+1)*wpl]
		copy(w, d.memLine(id))
		out[i] = mem.LineImage{Base: d.lines.Bases()[id], Words: w}
	}
	return out
}

func (d *Directory) restoreState(ds *DirState) error {
	if d.lines.Len() != 0 {
		return fmt.Errorf("core: dir %d restore target is not fresh", d.node)
	}
	g := d.sys.cfg.Geometry
	wpl := g.WordsPerLine()
	d.nstid = ds.NSTID
	d.done.LoadWords(ds.Done)

	// Replaying the entries' first touches in snapshot order rebuilds the
	// same ids, so every later snapshot lists them in the same order.
	for i := range ds.Entries {
		es := &ds.Entries[i]
		if es.Base != g.Line(es.Base) {
			return fmt.Errorf("core: dir %d restore entry %#x is not line-aligned", d.node, es.Base)
		}
		id, fresh := d.lines.ID(es.Base)
		if !fresh {
			return fmt.Errorf("core: dir %d restore entry %#x duplicated", d.node, es.Base)
		}
		d.newEntry(id)
		e := d.entryAt(id)
		e.sharers.LoadWords(es.Sharers)
		e.owner = es.Owner
		e.ownerTID = es.OwnerTID
		e.ownedWords = es.OwnedWords
		e.marked = es.Marked
		e.markWords = es.MarkWords
		if es.MarkData != nil {
			if len(es.MarkData) != wpl {
				return fmt.Errorf("core: dir %d restore mark data for %#x has %d words, want %d",
					d.node, es.Base, len(es.MarkData), wpl)
			}
			e.markData = d.sys.copyLine(es.MarkData)
		}
		if len(es.PendingFrom) > 0 {
			e.pendingFrom = append([]int(nil), es.PendingFrom...)
		}
	}

	for _, li := range ds.Memory {
		if li.Base != g.Line(li.Base) {
			return fmt.Errorf("core: dir %d restore memory line %#x is not line-aligned", d.node, li.Base)
		}
		if len(li.Words) != wpl {
			return fmt.Errorf("core: dir %d restore memory line %#x has %d words, want %d", d.node, li.Base, len(li.Words), wpl)
		}
		// Memory is only touched through a line's entry, so every memory
		// line has one.
		id, ok := d.lines.Lookup(li.Base)
		if !ok {
			return fmt.Errorf("core: dir %d restore memory line %#x has no directory entry", d.node, li.Base)
		}
		if d.entryAt(id).inMem {
			return fmt.Errorf("core: dir %d restore memory line %#x duplicated", d.node, li.Base)
		}
		copy(d.memLine(id), li.Words)
	}

	d.markedLines = append(d.markedLines, ds.MarkedLines...)
	d.markOwner = ds.MarkOwner
	d.commitBusy = ds.CommitBusy
	d.commitAcks = ds.CommitAcks
	d.commitFlushes = ds.CommitFlushes
	d.pendingCommitTID = ds.PendingCommitTID

	for _, pr := range ds.Probes {
		d.probes = append(d.probes, pendingProbe{t: pr.T, write: pr.Write, from: pr.From})
	}
	d.probeMin = ds.ProbeMin
	for _, ss := range ds.Stalls {
		q := stallQueue{base: ss.Base}
		for _, pl := range ss.Loads {
			q.loads = append(q.loads, pendingLoad{addr: pl.Addr, from: pl.From, reqTID: pl.ReqTID})
		}
		d.stalls = append(d.stalls, q)
	}
	d.nextFree = ds.NextFree

	if err := d.restoreDirCache(ds.DirCache); err != nil {
		return err
	}
	d.dirCache.clock = ds.DirCacheClock
	d.remoteEntries = ds.RemoteEntries

	d.stats = ds.Stats
	d.occHist.Restore(ds.OccHist)
	d.wsHist.Restore(ds.WsHist)
	d.curBusy = ds.CurBusy
	return nil
}

// restoreDirCache rebuilds the directory cache's list from its residents,
// oldest stamp at the back.
func (d *Directory) restoreDirCache(res []DirCacheStamp) error {
	if len(res) == 0 {
		return nil
	}
	c := &d.dirCache
	for len(c.links) < len(d.entChunks) {
		c.grow()
	}
	res = append([]DirCacheStamp(nil), res...)
	sort.SliceStable(res, func(i, j int) bool { return res[i].Stamp < res[j].Stamp })
	for _, r := range res {
		id, ok := d.lines.Lookup(r.Addr)
		if !ok {
			return fmt.Errorf("core: dir %d restore directory-cache line %#x has no entry", d.node, r.Addr)
		}
		if c.link(id).in {
			return fmt.Errorf("core: dir %d restore directory-cache line %#x duplicated", d.node, r.Addr)
		}
		c.pushFront(id, r.Stamp)
	}
	return nil
}

// checkNodes refuses a checkpoint that names a node outside the machine in
// any field the restored run indexes by: an event's node, its message's
// endpoints and a fault event's directory, an outstanding TID's holder, a
// directory entry's owner, sharers and pending senders, the mark owner, a
// deferred probe's or stalled load's sender, and a processor's Sharing and
// Writing vectors. Left unchecked, such a node panics or hangs the run after
// the cut instead of failing the restore.
func checkNodes(ck *Checkpoint) error {
	n := ck.NumProcs
	bad := func(what string, node int) error {
		return fmt.Errorf("core: checkpoint %s names node %d of %d", what, node, n)
	}
	for i := range ck.Events {
		es := &ck.Events[i]
		if es.Handler == "sys" {
			if es.Node != -1 {
				return bad(fmt.Sprintf("event %d (sys)", i), es.Node)
			}
			if es.Code == sysFault && es.A1 >= uint64(n) {
				return bad(fmt.Sprintf("event %d fault directory", i), int(es.A1))
			}
		}
		if m := es.Msg; m != nil {
			for _, node := range []int32{m.Src, m.Dst} {
				if node < 0 || int(node) >= n {
					return bad(fmt.Sprintf("event %d message", i), int(node))
				}
			}
		}
	}
	for _, o := range ck.VendorOut {
		if o.Node < 0 || o.Node >= n {
			return bad(fmt.Sprintf("outstanding TID %d", o.TID), o.Node)
		}
	}
	for i := range ck.Procs {
		ps := &ck.Procs[i]
		if !nodeSetWithin(ps.SharingVec, n) || !nodeSetWithin(ps.WritingVec, n) {
			return fmt.Errorf("core: checkpoint proc %d sharing or writing vector names a node outside %d", i, n)
		}
	}
	for i := range ck.Dirs {
		ds := &ck.Dirs[i]
		if ds.MarkOwner < 0 || ds.MarkOwner >= n {
			return bad(fmt.Sprintf("dir %d mark owner", i), ds.MarkOwner)
		}
		for j := range ds.Entries {
			es := &ds.Entries[j]
			if es.Owner < -1 || es.Owner >= n {
				return bad(fmt.Sprintf("dir %d entry %#x owner", i, es.Base), es.Owner)
			}
			if !nodeSetWithin(es.Sharers, n) {
				return fmt.Errorf("core: checkpoint dir %d entry %#x sharers name a node outside %d", i, es.Base, n)
			}
			for _, from := range es.PendingFrom {
				if from < 0 || from >= n {
					return bad(fmt.Sprintf("dir %d entry %#x pending sender", i, es.Base), from)
				}
			}
		}
		for _, pr := range ds.Probes {
			if pr.From < 0 || pr.From >= n {
				return bad(fmt.Sprintf("dir %d probe", i), pr.From)
			}
		}
		for _, st := range ds.Stalls {
			for _, pl := range st.Loads {
				if pl.From < 0 || pl.From >= n {
					return bad(fmt.Sprintf("dir %d stalled load", i), pl.From)
				}
			}
		}
	}
	return nil
}

// nodeSetWithin reports whether the node set with backing words w holds only
// nodes below n.
func nodeSetWithin(w []uint64, n int) bool {
	for i, word := range w {
		if lo := i * 64; lo+64 > n && word>>uint(max(n-lo, 0)) != 0 {
			return false
		}
	}
	return true
}

// handlerFor resolves a restored event's handler identity.
func (s *System) handlerFor(es *EventState) (sim.Handler, error) {
	switch es.Handler {
	case "sys":
		return s, nil
	case "proc":
		if es.Node < 0 || es.Node >= len(s.procs) {
			return nil, fmt.Errorf("core: restore event for proc %d of %d", es.Node, len(s.procs))
		}
		return s.procs[es.Node], nil
	case "dir":
		if es.Node < 0 || es.Node >= len(s.dirs) {
			return nil, fmt.Errorf("core: restore event for dir %d of %d", es.Node, len(s.dirs))
		}
		return s.dirs[es.Node], nil
	}
	return nil, fmt.Errorf("core: restore event has unknown handler kind %q", es.Handler)
}

// Restore installs a checkpoint into a freshly built System. The System must
// have been constructed by NewSystem with the same processor count, geometry,
// engine (sequential or epoch), and program as the snapshot's; timing
// knobs (latencies, bandwidths, watchdog) may differ — the snapshot stores
// absolute times, which remain valid, and new knob values apply to everything
// scheduled after the cut.
func (s *System) Restore(ck *Checkpoint) error {
	if ck.Schema != KernelCheckpointSchema {
		return fmt.Errorf("core: checkpoint schema %q, want %q", ck.Schema, KernelCheckpointSchema)
	}
	if ck.Version != KernelCheckpointVersion {
		return fmt.Errorf("core: checkpoint version %d, this build reads %d", ck.Version, KernelCheckpointVersion)
	}
	if ck.NumProcs != s.cfg.Procs {
		return fmt.Errorf("core: checkpoint of a %d-proc machine, config has %d", ck.NumProcs, s.cfg.Procs)
	}
	if len(ck.Kernels) > 1 || len(ck.Ports) > 0 {
		return fmt.Errorf("core: checkpoint is in the retired per-node layout (%d kernel clocks, port_state %v): "+
			"the epoch engine now runs on one kernel with the System's statistics, so this snapshot "+
			"cannot be restored; rerun from the start", len(ck.Kernels), len(ck.Ports) > 0)
	}
	if ck.Sharded != (s.win != nil) {
		return fmt.Errorf("core: checkpoint engine mode (sharded=%v) does not match config", ck.Sharded)
	}
	if err := s.checkpointable(); err != nil {
		return err
	}
	if s.restored {
		return fmt.Errorf("core: System already restored once")
	}
	if _, seq, nRun := s.kernel.Clock(); seq != 0 || nRun != 0 {
		return fmt.Errorf("core: restore target has already executed events")
	}
	if len(ck.Kernels) != 1 {
		return fmt.Errorf("core: checkpoint has %d kernel clocks, want 1", len(ck.Kernels))
	}
	if len(ck.Procs) != s.cfg.Procs || len(ck.Dirs) != s.cfg.Procs {
		return fmt.Errorf("core: checkpoint has %d/%d proc/dir states, machine has %d",
			len(ck.Procs), len(ck.Dirs), s.cfg.Procs)
	}

	if ck.Net == nil {
		return fmt.Errorf("core: checkpoint has no network state")
	}
	if err := checkNodes(ck); err != nil {
		return err
	}
	if err := s.addrMap.Restore(ck.AddrMap); err != nil {
		return err
	}
	if err := s.net.Restore(ck.Net); err != nil {
		return err
	}
	if err := s.vendor.Restore(ck.VendorNext, ck.VendorOut); err != nil {
		return err
	}
	s.barrier.arrived = ck.BarrierArrived
	s.running = ck.Running
	s.collectLog = ck.CollectLog

	for i, p := range s.procs {
		if err := p.restoreState(&ck.Procs[i]); err != nil {
			return err
		}
	}
	for i, d := range s.dirs {
		if err := d.restoreState(&ck.Dirs[i]); err != nil {
			return err
		}
	}

	if len(ck.MsgCounts) != NumMsgKinds {
		return fmt.Errorf("core: checkpoint has %d message counters, want %d", len(ck.MsgCounts), NumMsgKinds)
	}
	copy(s.msgCounts[:], ck.MsgCounts)
	s.totalCommits = ck.Commits
	s.totalViolations = ck.Violations
	s.committedInstr = ck.Instr
	s.txInstrH.Restore(ck.TxInstrH)
	s.rdSetH.Restore(ck.RdSetH)
	s.wrSetH.Restore(ck.WrSetH)
	s.dirsTouchedH.Restore(ck.DirsTouchedH)
	s.commitLog = append(s.commitLog, ck.CommitLog...)

	// Rebuild the kernel: re-allocate each event's message (in event order,
	// so pool growth is deterministic), rebind handlers, and install the
	// clock + pending set.
	pending := make([]sim.PendingEvent, 0, len(ck.Events))
	for i := range ck.Events {
		es := &ck.Events[i]
		if es.Kernel != 0 {
			return fmt.Errorf("core: restore event %d targets kernel %d of 1", i, es.Kernel)
		}
		h, err := s.handlerFor(es)
		if err != nil {
			return err
		}
		pe := sim.PendingEvent{At: es.At, Seq: es.Seq, Code: es.Code, A1: es.A1, A2: es.A2, H: h}
		if eventCarriesMsg(es.Handler, es.Code) {
			if es.Msg == nil {
				return fmt.Errorf("core: restore event %d (%s code %d) is missing its message payload", i, es.Handler, es.Code)
			}
			idx, err := s.installMsg(es.Msg)
			if err != nil {
				return err
			}
			pe.A1 = uint64(idx)
		} else if es.Msg != nil {
			return fmt.Errorf("core: restore event %d (%s code %d) carries an unexpected message", i, es.Handler, es.Code)
		}
		pending = append(pending, pe)
	}
	kc := ck.Kernels[0]
	if err := s.kernel.Restore(kc.Now, kc.Seq, kc.NRun, pending); err != nil {
		return fmt.Errorf("core: kernel: %w", err)
	}

	s.restored = true
	return nil
}

// RestoreSystem builds a System for (cfg, prog) and installs ck into it —
// the one-call restore path.
func RestoreSystem(cfg Config, prog workload.Program, ck *Checkpoint) (*System, error) {
	s, err := NewSystem(cfg, prog)
	if err != nil {
		return nil, err
	}
	if err := s.Restore(ck); err != nil {
		return nil, err
	}
	return s, nil
}

// RunCheckpointed executes like Run, additionally invoking fn with a fresh
// Checkpoint at the first quiescent cut at or after every multiple of
// `every` cycles. fn returning an error aborts the run. A restored System
// resumes checkpointing from its restored clock.
func (s *System) RunCheckpointed(every sim.Time, fn func(*Checkpoint) error) (*Results, error) {
	if every <= 0 || fn == nil {
		return nil, fmt.Errorf("core: RunCheckpointed needs a positive interval and a sink")
	}
	if err := s.checkpointable(); err != nil {
		return nil, err
	}
	s.ckEvery, s.ckFn = every, fn
	now, _, _ := s.kernel.Clock()
	s.ckNext = (now/every + 1) * every
	defer func() { s.ckEvery, s.ckFn, s.ckNext = 0, nil, 0 }()
	return s.Run()
}

// maybeCheckpoint takes a checkpoint if the clock has crossed the next
// checkpoint boundary. Called at quiescent cuts only.
func (s *System) maybeCheckpoint(now sim.Time) error {
	if s.ckFn == nil || now < s.ckNext {
		return nil
	}
	ck, err := s.Snapshot()
	if err != nil {
		return err
	}
	if err := s.ckFn(ck); err != nil {
		return fmt.Errorf("core: checkpoint sink: %w", err)
	}
	for s.ckNext <= now {
		s.ckNext += s.ckEvery
	}
	return nil
}
