package core

import (
	"fmt"

	"scalabletcc/internal/bits"
	"scalabletcc/internal/cache"
	"scalabletcc/internal/mem"
	"scalabletcc/internal/obs"
	"scalabletcc/internal/sim"
	"scalabletcc/internal/stats"
	"scalabletcc/internal/tid"
	"scalabletcc/internal/verify"
	"scalabletcc/internal/workload"
)

// procPhase is the processor's protocol state.
type procPhase int

const (
	phRunning    procPhase = iota // executing transaction operations
	phWaitLoad                    // stalled on a load miss
	phValidating                  // TID / skip / probe / mark / commit
	phBarrier                     // waiting at a phase barrier
	phDone
)

// writeLine is one line of the write-set, grouped by home directory at
// validation time.
type writeLine struct {
	base  mem.Addr
	words bits.WordMask
}

// fillTrack is the per-line record behind the load/invalidate race handling:
// outstanding fill requests (out), responses that must be dropped because an
// invalidation overtook them (kills), and whether an out-of-band refill of
// the line is in flight (refill). The tracked lines are few at any moment, so
// a linear scan over a reusable slice replaces three per-line maps.
type fillTrack struct {
	base   mem.Addr
	out    int
	kills  int
	refill bool
}

// ProcStats are the per-processor counters the experiments aggregate.
type ProcStats struct {
	Breakdown      stats.Breakdown
	Commits        uint64
	Violations     uint64
	CommittedInstr uint64
	OverflowAborts uint64
	MaxRetries     uint64 // worst attempts needed by any one transaction
}

// Processor models one TCC processor (Figure 1b): single-issue CPI-1
// execution, a private cache hierarchy with SR/SM/dirty tracking, the
// Sharing and Writing vectors, and the commit engine implementing the OCC
// validation and commit phases.
type Processor struct {
	sys  *System
	id   int
	prog workload.Program

	cache *cache.Cache
	l1    *cache.TagArray

	// Program position.
	progPhase int
	txIdx     int
	ops       []workload.Op
	opIdx     int

	// Per-attempt execution state.
	phase      procPhase
	epoch      uint64 // bumped on rollback/commit; stale events check it
	txStart    sim.Time
	missStart  sim.Time
	missLine   mem.Addr // line base of the outstanding miss
	pendUseful uint64
	pendMiss   uint64
	attempt    int
	readSet    mem.ReadSet
	sharingVec bits.NodeSet
	writingVec bits.NodeSet

	// Validation state.
	tid          tid.TID
	lastTID      tid.TID // most recent TID acquired; tags write-backs
	waitingTID   bool
	tidDisposals int  // TID grants in flight that belong to violated attempts
	keepTID      bool // retain the early TID across the upcoming restart
	commitStart  sim.Time
	writeLines   [][]writeLine       // per home dir, lines to mark; reused across attempts
	writeDirs    []int               // dirs with a non-empty writeLines entry, ascending
	snapWrite    func(l *cache.Line) // write-set snapshot visitor, bound once
	readDirs     []int               // probe scratch: read-set dirs outside the write-set

	// Probe bookkeeping: pendTokW[d]/pendTokR[d] == valTok means directory d
	// still owes this attempt a write/read probe answer. Bumping valTok at
	// each attempt retires every token at once, replacing two per-attempt
	// maps.
	valTok     uint64
	pendTokW   []uint64
	pendTokR   []uint64
	pendWriteN int
	pendReadN  int

	// fills tracks the in-flight fill state per line (see fillTrack);
	// refillCount is the number of lines with an out-of-band refill pending.
	fills       []fillTrack
	refillCount int

	idleStart sim.Time
	stats     ProcStats
}

func newProcessor(sys *System, id int, prog workload.Program) *Processor {
	cfg := sys.cfg
	p := &Processor{
		sys:        sys,
		id:         id,
		prog:       prog,
		cache:      cache.New(cfg.Geometry, cfg.L2Size, cfg.L2Ways),
		l1:         cache.NewTagArray(cfg.Geometry, cfg.L1Size, cfg.L1Ways),
		phase:      phDone,
		writeLines: make([][]writeLine, cfg.Procs),
		pendTokW:   make([]uint64, cfg.Procs),
		pendTokR:   make([]uint64, cfg.Procs),
	}
	p.snapWrite = func(l *cache.Line) {
		if !l.SM.Any() {
			return
		}
		home := p.homeOf(l.Base)
		if len(p.writeLines[home]) == 0 {
			p.writeDirs = append(p.writeDirs, home)
		}
		p.writeLines[home] = append(p.writeLines[home], writeLine{base: l.Base, words: l.SM})
	}
	return p
}

// Stats returns a copy of the processor's counters.
func (p *Processor) Stats() ProcStats { return p.stats }

// Cache exposes the private cache for tests and cache-level statistics.
func (p *Processor) Cache() *cache.Cache { return p.cache }

// HandleEvent dispatches the processor's typed kernel events. Continuations
// belonging to one transaction attempt carry the attempt's epoch in a1 and
// die silently if the transaction rolled back or committed in the meantime.
func (p *Processor) HandleEvent(code uint32, a1, a2 uint64) {
	switch code {
	case prStep:
		if p.epoch == a1 {
			p.step()
		}
	case prStartAttempt:
		if p.epoch == a1 {
			p.startAttempt()
		}
	case prBeginTx:
		p.beginTx()
	case prReprobe:
		if p.epoch == a1 && p.phase == phValidating {
			p.sendProbe(int(a2>>1), a2&1 != 0)
		}
	case prBarrierRelease:
		p.onBarrierRelease()
	case prStart:
		p.start()
	default:
		panic("core: unknown processor event")
	}
}

func (p *Processor) start() {
	p.progPhase = 0
	p.txIdx = 0
	p.beginTx()
}

// beginTx starts the next transaction of the program, or arrives at the
// phase barrier when the phase's transactions are exhausted.
func (p *Processor) beginTx() {
	if p.txIdx >= p.prog.TxCount(p.id, p.progPhase) {
		p.phase = phBarrier
		p.idleStart = p.sys.kernel.Now()
		p.sys.barrier.arrive(p.id)
		return
	}
	tx := p.prog.Tx(p.id, p.progPhase, p.txIdx)
	p.ops = tx.Ops
	// Size the read set's samples once for the transaction's loads, so no
	// attempt regrows them. Its index is built only if fillLine re-validates.
	p.readSet.ReserveSamples(tx.Loads())
	p.startAttempt()
}

// startAttempt (re)starts execution of the current transaction.
func (p *Processor) startAttempt() {
	p.phase = phRunning
	p.opIdx = 0
	p.txStart = p.sys.kernel.Now()
	p.pendUseful = 0
	p.pendMiss = 0
	p.readSet.Reset()
	p.sharingVec.Reset()
	p.writingVec.Reset()
	for _, d := range p.writeDirs {
		p.writeLines[d] = p.writeLines[d][:0]
	}
	p.writeDirs = p.writeDirs[:0]
	p.valTok++ // retire any probe bookkeeping from the previous attempt
	p.pendWriteN = 0
	p.pendReadN = 0
	if p.keepTID {
		// Starvation mitigation, retry path: the early TID is retained
		// across the restart ("a starved transaction keeps its TID at
		// violation time"). This is sound precisely because no Skip was
		// ever sent for it: every directory is still stalled at or below
		// it, so the replay can only observe logically-earlier commits.
		p.keepTID = false
	} else {
		p.tid = tid.None
		if th := p.sys.cfg.StarveRetainAfter; th > 0 && p.attempt >= th && !p.waitingTID {
			// Starvation mitigation (§3.3), entry path: a repeatedly-violated
			// transaction requests its TID at the *start* of execution. No
			// directory can advance past an unaccounted TID, so while this
			// transaction runs no later transaction can commit anywhere, and
			// once the pre-existing lower TIDs drain it is the lowest TID in
			// the system and commits unimpeded.
			p.requestTID()
		}
	}
	p.step()
}

func (p *Processor) requestTID() {
	p.waitingTID = true
	i, _ := p.sys.newMsg(MsgTIDReq, p.id, p.sys.vendorNode)
	p.sys.sendMsg(i)
}

// step executes operations until it must wait (compute delay, load miss) or
// the transaction ends.
func (p *Processor) step() {
	if p.opIdx >= len(p.ops) {
		p.beginValidation()
		return
	}
	op := p.ops[p.opIdx]
	switch op.Kind {
	case workload.Compute:
		p.opIdx++
		p.pendUseful += uint64(op.Cycles)
		p.sys.kernel.PostAfter(sim.Time(op.Cycles), p, prStep, p.epoch, 0)
	case workload.Load:
		p.doLoad(op.Addr)
	case workload.Store:
		p.doStore(op.Addr)
	default:
		panic("core: unknown op kind")
	}
}

// ---------------------------------------------------------------------------
// Loads and stores.

func (p *Processor) homeOf(a mem.Addr) int { return p.sys.addrMap.Home(a, p.id) }

func (p *Processor) doLoad(a mem.Addr) {
	g := p.sys.cfg.Geometry
	base := g.Line(a)
	w := g.WordIndex(a)
	home := p.homeOf(a)
	p.sharingVec.Set(home)

	line := p.cache.Lookup(base)
	if line != nil && line.VW.Has(w) {
		lat := L2Latency
		if p.l1.Access(base) {
			lat = L1Latency
		}
		p.finishLoad(line, w, a)
		p.pendUseful++
		if lat > 1 {
			p.pendMiss += uint64(lat - 1)
		}
		p.opIdx++
		p.sys.kernel.PostAfter(lat, p, prStep, p.epoch, 0)
		return
	}
	// Miss (or partially invalidated line): fetch from the home directory.
	p.issueMiss(a, home)
}

// fillAt returns the fill-tracking slot for base, or nil. An absent slot is
// equivalent to an all-zero one.
func (p *Processor) fillAt(base mem.Addr) *fillTrack {
	for i := range p.fills {
		if p.fills[i].base == base {
			return &p.fills[i]
		}
	}
	return nil
}

// fillSlot returns (allocating) the fill-tracking slot for base.
func (p *Processor) fillSlot(base mem.Addr) *fillTrack {
	if t := p.fillAt(base); t != nil {
		return t
	}
	p.fills = append(p.fills, fillTrack{base: base})
	return &p.fills[len(p.fills)-1]
}

// gcFill releases base's tracking slot once it is all-zero again.
func (p *Processor) gcFill(base mem.Addr) {
	for i := range p.fills {
		t := &p.fills[i]
		if t.base == base {
			if t.out == 0 && t.kills == 0 && !t.refill {
				n := len(p.fills) - 1
				p.fills[i] = p.fills[n]
				p.fills = p.fills[:n]
			}
			return
		}
	}
}

func (p *Processor) issueMiss(a mem.Addr, home int) {
	p.phase = phWaitLoad
	p.missStart = p.sys.kernel.Now()
	p.missLine = p.sys.cfg.Geometry.Line(a)
	if t := p.fillAt(p.missLine); t != nil && t.refill {
		return // an out-of-band refill of this line is already in flight
	}
	p.sendFill(a, home)
}

// sendFill issues one fill request and tracks it for the load/invalidate
// race. The request carries the requester's TID (if any) so the directory
// can serve logically-earlier loads past a marked line.
func (p *Processor) sendFill(a mem.Addr, home int) {
	p.fillSlot(p.sys.cfg.Geometry.Line(a)).out++
	i, m := p.sys.newMsg(MsgLoadReq, p.id, home)
	m.addr = a
	m.t = p.tid
	p.sys.sendMsg(i)
}

// onLoadResp completes a load or store-allocate miss: install or merge the
// line, then resume the stalled operation. A response that does not match
// the outstanding miss belongs to an attempt that rolled back and is
// dropped; re-accepting a stale fill of the *same* line is safe because the
// home directory's FIFO channel delivers any subsequent invalidation after
// it.
func (p *Processor) onLoadResp(base mem.Addr, data []mem.Version) {
	if ft := p.fillAt(base); ft != nil {
		if ft.out > 0 {
			ft.out--
		}
		if ft.kills > 0 {
			// An invalidation for this line overtook the fill: the data may
			// predate the invalidating commit. Drop it and retry the fetch.
			ft.kills--
			if ft.refill || (p.phase == phWaitLoad && p.missLine == base) {
				p.sendFill(base, p.homeOf(base))
			}
			p.gcFill(base)
			return
		}
	}
	ft := p.fillAt(base)
	isRefill := ft != nil && ft.refill
	isDemand := p.phase == phWaitLoad && p.missLine == base
	if !isRefill && !isDemand {
		p.gcFill(base)
		return // stale response from a rolled-back attempt
	}
	if isRefill {
		ft.refill = false
		p.refillCount--
	}
	p.gcFill(base)
	line := p.fillLine(base, data)
	if line != nil && p.sys.obsv != nil {
		p.sys.emit(obs.Event{Kind: obs.KFill, Node: p.id, Peer: p.homeOf(base), Addr: uint64(base)})
	}
	if line == nil || !isDemand {
		if line != nil && isRefill && p.phase == phValidating {
			// A refill resolving during validation may have been the last
			// thing holding the commit back.
			p.checkCommitReady()
		}
		return // the fill violated the transaction, or was out-of-band only
	}
	g := p.sys.cfg.Geometry
	op := p.ops[p.opIdx]
	p.pendMiss += uint64(p.sys.kernel.Now() - p.missStart)
	p.phase = phRunning
	if op.Kind == workload.Load {
		w := g.WordIndex(op.Addr)
		p.finishLoad(line, w, op.Addr)
		p.pendUseful++
		p.opIdx++
		p.sys.kernel.PostAfter(1, p, prStep, p.epoch, 0)
		return
	}
	// Store-allocate fill: re-dispatch the store, which now hits.
	p.sys.kernel.PostAfter(1, p, prStep, p.epoch, 0)
}

// fillLine installs or merges arriving line data. Merging never overwrites
// locally-valid or SM words. Filling a word the current transaction
// speculatively read means the original copy was invalidated after the read;
// if the word's version changed at all, the read may be stale and the
// transaction violates — fillLine then returns nil.
func (p *Processor) fillLine(base mem.Addr, data []mem.Version) *cache.Line {
	g := p.sys.cfg.Geometry
	line := p.cache.Peek(base)
	if line == nil {
		var victim *cache.Victim
		line, victim = p.cache.Insert(base, data)
		p.disposeVictim(victim)
		return line
	}
	violated := false
	var conflictVersion mem.Version
	for w := 0; w < g.WordsPerLine(); w++ {
		// Re-validate every speculatively-read word of the line: while this
		// processor was off the sharers list (after a partial invalidation),
		// a commit could have changed any of them — including words that
		// stayed locally valid or were later overwritten by SM stores.
		if line.SR.Has(w) {
			read, _ := p.readSet.Get(g.WordAddr(base, w))
			// Any version change since the read is a (conservative)
			// violation. A version above this transaction's own TID is NOT
			// proof of safety: memory versions only grow, so a later
			// committer can mask an intermediate conflicting write that
			// happened while this processor was off the sharers list and
			// received no invalidation for it. Only an unchanged version
			// proves no committed write intervened.
			if data[w] != read {
				violated = true
				conflictVersion = data[w]
			}
		}
		if line.VW.Has(w) || line.SM.Has(w) {
			continue
		}
		line.Data[w] = data[w]
	}
	line.VW = bits.All(g.WordsPerLine())
	if violated {
		p.violateOn(base, tid.TID(conflictVersion))
		return nil
	}
	return line
}

// requestRefill refetches a partially-invalidated line out of band so the
// processor re-enters the line's sharers list and keeps receiving
// invalidations for the speculatively-read words it still tracks.
func (p *Processor) requestRefill(base mem.Addr) {
	if t := p.fillAt(base); t != nil && t.refill {
		return
	}
	if p.phase == phWaitLoad && p.missLine == base {
		return
	}
	p.fillSlot(base).refill = true
	p.refillCount++
	p.sendFill(base, p.homeOf(base))
}

// finishLoad applies the architectural effects of a load: SR tracking and
// the read log for the serializability oracle. SR is set only here and is
// cleared only with the read set (commit and rollback clear both; a line
// holding SR bits is never dropped without a violation), so a clear SR bit
// means the word is not in the read set yet: the bit is the read set's
// first-read check (DESIGN §36).
func (p *Processor) finishLoad(line *cache.Line, w int, a mem.Addr) {
	if line.SM.Has(w) || line.SR.Has(w) {
		return
	}
	line.SR = line.SR.Set(w)
	p.cache.Track(line)
	p.readSet.Append(a, line.Data[w])
	if p.sys.obsv != nil {
		p.sys.emit(obs.Event{Kind: obs.KRead, Node: p.id, Peer: -1, Addr: uint64(a), Arg: int64(line.Data[w])})
	}
}

func (p *Processor) doStore(a mem.Addr) {
	g := p.sys.cfg.Geometry
	base := g.Line(a)
	w := g.WordIndex(a)
	home := p.homeOf(a)
	p.writingVec.Set(home)

	line := p.cache.Lookup(base)
	if line == nil {
		// Write-allocate: fetch the line, then retry the store (the op index
		// does not advance, so step() re-issues it after the fill).
		p.issueMiss(a, home)
		return
	}
	p.l1.Access(base)
	if line.Dirty && !line.SM.Any() {
		// First speculative write to a committed-dirty line: write the
		// committed data back before overwriting it (the per-line dirty-bit
		// rule of §3.1). The write-back is posted with Flush semantics (the
		// line stays cached); execution continues.
		p.writeBackData(line.Base, line.OW, line.Data, false)
		line.Dirty = false
		line.OW = 0
	}
	line.SM = line.SM.Set(w)
	line.VW = line.VW.Set(w)
	p.cache.Track(line)
	p.pendUseful++
	p.opIdx++
	p.sys.kernel.PostAfter(L1Latency, p, prStep, p.epoch, 0)
}

// disposeVictim handles a line evicted by a fill: committed-dirty data is
// written back; clean lines are dropped silently (no replacement hints).
func (p *Processor) disposeVictim(v *cache.Victim) {
	if v == nil {
		return
	}
	if p.sys.obsv != nil {
		e := obs.Event{Kind: obs.KOverflow, Node: p.id, Peer: -1, Addr: uint64(v.Base)}
		if v.Dirty {
			e.Arg = 1
		}
		p.sys.emit(e)
	}
	p.l1.Invalidate(v.Base)
	if v.Dirty {
		p.writeBackData(v.Base, v.OW, v.Data, true)
	}
	// writeBackData snapshots the data, so the victim's buffer is dead here.
	p.cache.Recycle(v.Data)
}

// writeBackData posts committed data to the home directory, tagged with the
// processor's most recent TID (the paper's write-back race fix). remove
// reports whether the line left the cache.
func (p *Processor) writeBackData(base mem.Addr, words bits.WordMask, data []mem.Version, remove bool) {
	i, m := p.sys.newMsg(MsgWriteBack, p.id, p.homeOf(base))
	m.addr = base
	m.t = p.lastTID
	m.words = words
	m.data = p.sys.copyLine(data)
	m.flag = remove
	p.sys.sendMsg(i)
}

// ---------------------------------------------------------------------------
// Store-miss completion shares onLoadResp: when the fill arrives, step()
// re-dispatches the pending Store op, which now hits.

// ---------------------------------------------------------------------------
// Validation and commit (the OCC validation + commit phases).

// beginValidation snapshots the write-set, then acquires a TID.
func (p *Processor) beginValidation() {
	p.phase = phValidating
	p.commitStart = p.sys.kernel.Now()

	// Snapshot the write-set grouped by home directory. The visitor is the
	// pre-bound snapWrite closure so the per-commit walk allocates nothing.
	p.cache.ForEachSpeculative(p.snapWrite)
	sortInts(p.writeDirs)

	switch {
	case p.tid != tid.None:
		// Early-acquired (starvation-mitigation) TID already granted.
		p.proceedValidation()
	case p.waitingTID:
		// Early TID request still in flight; onTIDResp resumes validation.
	default:
		p.requestTID()
	}
}

// onTIDResp delivers the granted TID. It is not epoch-guarded: a TID granted
// to a transaction that has since violated must still be disposed of
// (skipped everywhere or retained), or every directory would stall forever.
func (p *Processor) onTIDResp(t tid.TID) {
	p.lastTID = t
	if p.tidDisposals > 0 {
		// The requesting attempt violated while the request was in flight.
		p.tidDisposals--
		p.skipAll(t, false)
		p.sys.vendorRetire(t)
		return
	}
	if !p.waitingTID {
		panic(fmt.Sprintf("proc %d: unexpected TID response", p.id))
	}
	p.waitingTID = false
	p.tid = t
	if p.phase == phValidating {
		p.proceedValidation()
	}
	// Otherwise this is an early (starvation-mitigation) grant during
	// execution; validation picks it up in beginValidation.
}

// proceedValidation multicasts skips to all directories outside the
// write-set, then probes the write- and read-set directories.
func (p *Processor) proceedValidation() {
	p.skipAll(p.tid, true)

	tok := p.valTok
	for _, d := range p.writeDirs {
		p.pendTokW[d] = tok
	}
	p.pendWriteN = len(p.writeDirs)
	p.readDirs = p.readDirs[:0]
	p.sharingVec.ForEach(func(d int) {
		if p.pendTokW[d] != tok {
			p.pendTokR[d] = tok
			p.readDirs = append(p.readDirs, d)
		}
	})
	p.pendReadN = len(p.readDirs)

	for _, d := range p.writeDirs {
		p.sendProbe(d, true)
	}
	for _, d := range p.readDirs {
		p.sendProbe(d, false)
	}
	p.checkCommitReady()
}

// skipAll sends Skip(t) to every directory not in the write-set.
// excludeWrites is false when disposing of an unused TID (skip everywhere).
func (p *Processor) skipAll(t tid.TID, excludeWrites bool) {
	for d := 0; d < p.sys.cfg.Procs; d++ {
		if excludeWrites && len(p.writeLines[d]) > 0 {
			continue
		}
		i, m := p.sys.newMsg(MsgSkip, p.id, d)
		m.t = t
		p.sys.sendMsg(i)
	}
}

func (p *Processor) sendProbe(d int, write bool) {
	i, m := p.sys.newMsg(MsgProbe, p.id, d)
	m.t = p.tid
	m.flag = write
	p.sys.sendMsg(i)
}

// onProbeResp handles a directory's NSTID answer. Answers to probes sent by
// an attempt that has since aborted carry that attempt's TID and are
// discarded by the mismatch check.
func (p *Processor) onProbeResp(d int, probed, nstid tid.TID) {
	if p.phase != phValidating || p.tid == tid.None || probed != p.tid {
		return // stale: response to an attempt that already aborted
	}
	if p.pendTokW[d] == p.valTok {
		switch {
		case nstid == p.tid:
			p.sendMarks(d)
			p.pendTokW[d] = 0
			p.pendWriteN--
			p.checkCommitReady()
		case nstid < p.tid:
			if p.sys.cfg.DeferredProbes {
				panic(fmt.Sprintf("proc %d: early write-probe answer (nstid %d < tid %d)", p.id, nstid, p.tid))
			}
			p.reprobe(d, true)
		default:
			// nstid > tid for a directory we never skipped means the
			// directory accounted our TID — only an abort can do that, and
			// then we would not still be validating this attempt.
			panic(fmt.Sprintf("proc %d: dir %d passed our TID %d (nstid %d)", p.id, d, p.tid, nstid))
		}
		return
	}
	if p.pendTokR[d] == p.valTok {
		if nstid >= p.tid {
			p.pendTokR[d] = 0
			p.pendReadN--
			p.checkCommitReady()
			return
		}
		if p.sys.cfg.DeferredProbes {
			panic(fmt.Sprintf("proc %d: early read-probe answer", p.id))
		}
		p.reprobe(d, false)
	}
}

func (p *Processor) reprobe(d int, write bool) {
	a2 := uint64(d) << 1
	if write {
		a2 |= 1
	}
	p.sys.kernel.PostAfter(reprobeDelay, p, prReprobe, p.epoch, a2)
}

// sendMarks pre-commits the write-set lines homed at directory d.
func (p *Processor) sendMarks(d int) {
	g := p.sys.cfg.Geometry
	t := p.tid
	for _, wl := range p.writeLines[d] {
		words := wl.words
		if p.sys.cfg.LineGranularity {
			words = bits.All(g.WordsPerLine())
		}
		i, m := p.sys.newMsg(MsgMark, p.id, d)
		m.addr = wl.base
		m.t = t
		m.words = words
		if p.sys.cfg.WriteThroughCommit {
			// Ship the final committed versions with the mark.
			line := p.cache.Peek(wl.base)
			data := p.sys.acquireBuf()
			for w := range data {
				switch {
				case wl.words.Has(w):
					data[w] = mem.Version(t)
				case line != nil:
					data[w] = line.Data[w]
				default:
					data[w] = 0
				}
			}
			m.data = data
		}
		p.sys.sendMsg(i)
	}
}

func (p *Processor) checkCommitReady() {
	if p.phase != phValidating || p.waitingTID || p.tid == tid.None {
		return
	}
	if p.pendWriteN != 0 || p.pendReadN != 0 {
		return
	}
	if p.refillCount != 0 {
		// An out-of-band refill is re-validating speculatively-read words of
		// a line we were invalidated off; its answer may violate this
		// transaction, so the commit point cannot pass yet.
		return
	}
	p.doCommit()
}

// doCommit is the commit point: after it, the transaction cannot violate.
func (p *Processor) doCommit() {
	t := p.tid
	if p.sys.aud != nil {
		p.sys.aud.onCommitPoint(p)
	}
	if p.sys.obsv != nil {
		p.sys.emit(obs.Event{Kind: obs.KCommit, Node: p.id, Peer: -1, TID: uint64(t),
			Set: fmt.Sprintf("%v", p.writeDirs), Arg: int64(p.readSet.Len())})
	}
	for _, d := range p.writeDirs {
		i, m := p.sys.newMsg(MsgCommit, p.id, d)
		m.t = t
		p.sys.sendMsg(i)
	}

	// Local finalization: committed versions, dirty/owned lines, log entry.
	// The footprint record exists only for the serializability oracle, so it
	// is built only when log collection is on: the read set's samples in
	// first-read order, then the written words line by line.
	if p.sys.collectLog {
		g := p.sys.cfg.Geometry
		r := CommitRecord{TID: t, Proc: p.id, Reads: append(verify.Words(nil), p.readSet.Samples()...)}
		nw := 0
		for _, d := range p.writeDirs {
			for _, wl := range p.writeLines[d] {
				nw += wl.words.Count()
			}
		}
		if nw > 0 {
			r.Writes = make(verify.Words, 0, nw)
		}
		for _, d := range p.writeDirs {
			for _, wl := range p.writeLines[d] {
				for w := 0; w < g.WordsPerLine(); w++ {
					if wl.words.Has(w) {
						r.Writes = append(r.Writes, mem.ReadSample{Addr: g.WordAddr(wl.base, w), Version: mem.Version(t)})
					}
				}
			}
		}
		p.sys.logCommit(r)
	}

	if p.sys.cfg.WriteThroughCommit {
		// Data went with the marks; committed lines stay clean.
		_ = p.cache.CommitTxWriteThrough(mem.Version(t))
	} else {
		for _, v := range p.cache.CommitTx(mem.Version(t)) {
			vic := v
			p.disposeVictim(&vic)
		}
	}
	p.sys.vendorRetire(t)
	if p.sys.aud != nil {
		p.sys.aud.onTxBoundary(p)
	}

	now := p.sys.kernel.Now()
	var instr uint64
	for _, op := range p.ops {
		if op.Kind == workload.Compute {
			instr += uint64(op.Cycles)
		} else {
			instr++
		}
	}
	p.stats.Breakdown.Add(stats.Useful, p.pendUseful)
	p.stats.Breakdown.Add(stats.CacheMiss, p.pendMiss)
	p.stats.Breakdown.Add(stats.Commit, uint64(now-p.commitStart))
	p.stats.Commits++
	p.stats.CommittedInstr += instr
	if uint64(p.attempt) > p.stats.MaxRetries {
		p.stats.MaxRetries = uint64(p.attempt)
	}
	p.sys.noteCommit(p, instr)

	p.attempt = 0
	p.tid = tid.None
	p.epoch++
	p.txIdx++
	p.sys.kernel.PostAfter(1, p, prBeginTx, 0, 0)
}

// ---------------------------------------------------------------------------
// Invalidations, violations, and rollback.

// onInv handles an invalidation generated by a remote commit.
func (p *Processor) onInv(fromDir int, base mem.Addr, committer tid.TID, words bits.WordMask) {
	line := p.cache.Peek(base)

	// Always acknowledge: the committing directory cannot advance its NSTID
	// until all invalidations are accounted for (the race-elimination rule).
	i, _ := p.sys.newMsg(MsgInvAck, p.id, fromDir)
	p.sys.sendMsg(i)

	p.killOutstandingFills(base)
	if line == nil {
		return
	}
	if line.Dirty {
		// A committed-dirty (owned) line can only be invalidated by a later
		// commit, which requires a fetch, which forces a flush first.
		panic(fmt.Sprintf("proc %d: invalidation of owned line %#x", p.id, base))
	}

	p.applyInv(fromDir, line, base, words, committer)
}

// killOutstandingFills marks every in-flight fill of the line as stale: an
// invalidation overtook them, so their data may predate the invalidating
// commit (the paper's load/invalidate race fix).
func (p *Processor) killOutstandingFills(base mem.Addr) {
	if ft := p.fillAt(base); ft != nil && ft.out > 0 {
		ft.kills = ft.out
	}
}

// applyInv implements the invalidation-receipt policy shared by Inv and
// FlushInv: violate on a conflicting read, otherwise drop every word except
// the uncommitted (SM) ones. The directory removed us from the sharers
// list, so if the line still tracks speculatively-read words we refetch it
// out of band to regain invalidation coverage for them.
func (p *Processor) applyInv(fromDir int, line *cache.Line, base mem.Addr, words bits.WordMask, committer tid.TID) {
	if p.sys.obsv != nil {
		p.sys.emit(obs.Event{Kind: obs.KInv, Node: p.id, Peer: fromDir, Addr: uint64(base), Words: uint64(words),
			TID: uint64(committer), SR: uint64(line.SR), SM: uint64(line.SM), TID2: uint64(p.tid)})
	}
	overlap := line.SR.Overlaps(words)
	if p.sys.cfg.LineGranularity {
		overlap = line.SR.Any() && words.Any()
	}
	if overlap && (p.tid == tid.None || committer < p.tid) {
		// The invalidation takes effect regardless: the directory removed us
		// from the sharers list, so a stale copy must not survive the
		// rollback.
		p.cache.Invalidate(base)
		p.l1.Invalidate(base)
		p.violateOn(base, committer)
		return
	}
	if line.SM.Any() || line.SR.Any() {
		line.VW = line.SM
		// Speculatively-read words need continued invalidation coverage
		// until it is certain no lower-TID transaction can still commit at
		// this directory — i.e. unless the committer's TID already exceeds
		// ours. The refill's version check (fillLine) covers the
		// re-registration window.
		if line.SR.Any() && (p.tid == tid.None || committer < p.tid) {
			p.requestRefill(base)
		}
		return
	}
	p.cache.Invalidate(base)
	p.l1.Invalidate(base)
}

// violateOn aborts the current attempt, attributing the conflict to the
// line and committer that caused it (TAPE profiling), then notifies
// directories as needed, rolls back the cache, accounts the wasted time,
// and restarts.
func (p *Processor) violateOn(cause mem.Addr, committer tid.TID) {
	now := p.sys.kernel.Now()
	if p.sys.tape != nil {
		p.sys.tape.RecordViolation(cause, p.id, committer, uint64(now-p.txStart))
		p.sys.tape.RecordStreak(p.id, uint64(p.attempt)+1)
	}
	if p.sys.obsv != nil {
		p.sys.emit(obs.Event{Kind: obs.KViolation, Node: p.id, Peer: -1, TID: uint64(p.tid), Arg: int64(p.phase)})
	}
	p.stats.Violations++
	p.attempt++
	p.sys.noteViolation()

	switch {
	case p.waitingTID:
		// A TID grant is in flight (normal or early); dispose of it on
		// arrival.
		p.tidDisposals++
		p.waitingTID = false
	case p.tid == tid.None:
		// Violated during execution with no TID: nothing to account for.
	case p.phase == phValidating:
		// Skips already went to the non-write-set directories; the
		// write-set directories need an Abort to clear any marks and
		// account for the TID.
		t := p.tid
		for _, d := range p.writeDirs {
			i, m := p.sys.newMsg(MsgAbort, p.id, d)
			m.t = t
			p.sys.sendMsg(i)
		}
		p.sys.vendorRetire(t)
	default:
		// An early (starvation-mitigation) TID was granted and validation
		// never started: no directory has heard anything about it, so it can
		// be retained across the restart, preserving this transaction's
		// priority.
		p.keepTID = true
	}

	p.stats.Breakdown.Add(stats.Violation, uint64(now-p.txStart))
	p.epoch++
	p.cache.RollbackTx()
	if p.sys.aud != nil {
		p.sys.aud.onTxBoundary(p)
	}
	p.phase = phRunning
	if !p.keepTID {
		p.tid = tid.None
	}
	p.sys.kernel.PostAfter(ViolationRestartCost, p, prStartAttempt, p.epoch, 0)
}

// onFlushReq serves a directory's data request for an owned line: flush the
// committed data back, keep the line cached (clean), and remain a sharer.
func (p *Processor) onFlushReq(fromDir int, base mem.Addr) {
	line := p.cache.Peek(base)
	if line == nil || !line.Dirty {
		// The line was evicted (write-back in flight) or already flushed.
		i, m := p.sys.newMsg(MsgFlushNack, p.id, fromDir)
		m.addr = base
		p.sys.sendMsg(i)
		return
	}
	if p.sys.obsv != nil {
		p.sys.emit(obs.Event{Kind: obs.KFlush, Node: p.id, Peer: fromDir, Addr: uint64(base), Words: uint64(line.OW)})
	}
	line.Dirty = false
	line.OW = 0
	i, m := p.sys.newMsg(MsgFlushResp, p.id, fromDir)
	m.addr = base
	m.data = p.sys.copyLine(line.Data)
	p.sys.sendMsg(i)
}

// onFlushInv handles a commit-time ownership transfer: a later transaction
// committed this line while we held its previous committed data. Behaves
// like an invalidation for conflict detection, and additionally returns the
// owned words so the directory can salvage them into memory.
func (p *Processor) onFlushInv(fromDir int, base mem.Addr, committer tid.TID, words, oldOW bits.WordMask) {
	line := p.cache.Peek(base)
	if p.sys.obsv != nil {
		p.sys.emit(obs.Event{Kind: obs.KFlushInv, Node: p.id, Peer: fromDir, Addr: uint64(base),
			Words: uint64(words), TID: uint64(committer)})
	}

	i, m := p.sys.newMsg(MsgFlushInvResp, p.id, fromDir)
	m.addr = base
	m.words = oldOW
	if line != nil && line.Dirty {
		m.data = p.sys.copyLine(line.Data)
	}
	p.sys.sendMsg(i)

	p.killOutstandingFills(base)
	if line == nil {
		return
	}
	// The flushed data (if any) is on its way to memory; the line is no
	// longer owned here.
	line.Dirty = false
	line.OW = 0
	p.applyInv(fromDir, line, base, words, committer)
}

// onBarrierRelease resumes the processor after a phase barrier.
func (p *Processor) onBarrierRelease() {
	p.stats.Breakdown.Add(stats.Idle, uint64(p.sys.kernel.Now()-p.idleStart))
	p.progPhase++
	p.txIdx = 0
	if p.progPhase >= p.prog.Phases() {
		p.phase = phDone
		p.sys.procDone()
		return
	}
	p.beginTx()
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
