package baseline

import (
	"scalabletcc/internal/bits"
	"scalabletcc/internal/cache"
	"scalabletcc/internal/core"
	"scalabletcc/internal/mem"
	"scalabletcc/internal/obs"
	"scalabletcc/internal/rival"
	"scalabletcc/internal/sim"
	"scalabletcc/internal/workload"
)

type procState int

// Processor states within a transaction (the Arg of a KViolation event).
const (
	stRunning procState = iota
	stWaitLoad
	stWaitToken
)

// Processor opcodes, after the driver's (rival.Thread.Handle).
const (
	prToken   = rival.OpProtocol + iota // the commit token was granted
	prCommit                            // a1 = commit sequence: the write-set broadcast finished
	prMissReq                           // a1 = epoch: the miss request crossed the bus
	prMissMem                           // a1 = epoch: memory access done, reply over the bus
	prFill                              // a1 = epoch: the fill reply arrived
)

// wline is one line of a committing write-set.
type wline struct {
	base  mem.Addr
	words bits.WordMask
}

// proc is one bus-based TCC processor: execute speculatively, grab the
// commit token, broadcast the write-set over the ordered bus.
type proc struct {
	rival.Thread
	sys *System

	state      procState
	commitWait sim.Time

	// wset is the committing write-set, reused across commits: only the
	// token holder commits, so one broadcast per processor is in flight.
	wset     []wline
	addWrite func(*cache.Line) // pre-bound collector for wset
}

func newProc(s *System, id int) *proc {
	p := &proc{sys: s}
	p.Init(&s.Machine, id, p)
	p.addWrite = func(l *cache.Line) {
		if l.SM.Any() {
			p.wset = append(p.wset, wline{base: l.Base, words: l.SM})
		}
	}
	return p
}

// HandleEvent dispatches the processor's events and bus deliveries.
func (p *proc) HandleEvent(code uint32, a1, a2 uint64) {
	switch {
	case !p.Handle(code, a1, a2):
	case code == prToken:
		p.onToken()
	case code == prCommit:
		p.onCommit(mem.Version(a1))
	case a1 != p.Epoch: // a continuation of a violated attempt
	case code == prMissReq:
		p.sys.Kernel.PostAfter(p.sys.Cfg.MemLatency, p, prMissMem, p.Epoch, 0)
	case code == prMissMem:
		p.sys.busSend(16+p.sys.Cfg.Geometry.LineSize, p, prFill, p.Epoch)
	case code == prFill:
		p.onFill(p.sys.Cfg.Geometry.Line(p.Ops[p.OpIdx].Addr))
	default:
		panic("baseline: unknown processor event")
	}
}

// StartAttempt begins (or restarts) the transaction.
func (p *proc) StartAttempt() {
	p.state = stRunning
	p.ResetAttempt()
	p.Step()
}

// Access performs a load or a speculative store; misses fetch the line from
// shared memory over the bus.
func (p *proc) Access(op workload.Op) {
	g := p.sys.Cfg.Geometry
	base := g.Line(op.Addr)
	w := g.WordIndex(op.Addr)
	write := op.Kind == workload.Store
	if line := p.Cache.Lookup(base); line != nil && (line.VW.Has(w) || write) {
		p.finishAccess(line, w, op.Addr, write)
		p.FinishLocal(base)
		return
	}
	// Miss: bus request + memory access + bus reply (write-allocate). The
	// line data is captured at reply-delivery time: the ordered bus
	// linearizes fills with commit broadcasts, so a fill can never carry
	// data older than a commit the processor failed to snoop.
	p.state = stWaitLoad
	p.MissStart = p.sys.Kernel.Now()
	p.sys.busSend(16, p, prMissReq, p.Epoch)
}

// onFill installs the line the current load or store missed on.
func (p *proc) onFill(base mem.Addr) {
	g := p.sys.Cfg.Geometry
	data := p.sys.Homes[0].Line(base)
	line := p.Cache.Peek(base)
	if line == nil {
		var victim *cache.Victim
		line, victim = p.Cache.Insert(base, data)
		if victim != nil {
			if p.sys.Obsv != nil {
				p.sys.Emit(obs.Event{Kind: obs.KOverflow, Node: p.ID, Peer: -1, Addr: uint64(victim.Base)})
			}
			p.L1.Invalidate(victim.Base)
			// Write-through commits: committed data is always in shared
			// memory, so clean and dirty victims alike are dropped.
		}
	} else {
		for w := 0; w < g.WordsPerLine(); w++ {
			if !line.VW.Has(w) && !line.SM.Has(w) {
				line.Data[w] = data[w]
			}
		}
		line.VW = bits.All(g.WordsPerLine())
	}
	if p.sys.Obsv != nil {
		p.sys.Emit(obs.Event{Kind: obs.KFill, Node: p.ID, Peer: -1, Addr: uint64(base)})
	}
	op := p.Ops[p.OpIdx]
	p.finishAccess(line, g.WordIndex(op.Addr), op.Addr, op.Kind == workload.Store)
	p.state = stRunning
	p.FinishMiss()
}

func (p *proc) finishAccess(line *cache.Line, w int, a mem.Addr, write bool) {
	if write {
		line.SM = line.SM.Set(w)
		line.VW = line.VW.Set(w)
		p.Cache.Track(line)
		return
	}
	// SR is the read log's dedup, as in the TCC processor's finishLoad: a
	// word's bit is set exactly when its sample is appended (DESIGN §37).
	if !line.SM.Has(w) && !line.SR.Has(w) {
		line.SR = line.SR.Set(w)
		p.Cache.Track(line)
		p.ReadSet.Append(a, line.Data[w])
	}
}

// Commit requests the global commit token.
func (p *proc) Commit() {
	p.state = stWaitToken
	p.commitWait = p.sys.Kernel.Now()
	p.sys.acquireToken(p)
}

// onToken holds the token: broadcast the write-set over the ordered bus,
// write through to memory, snoop every other processor, then release.
func (p *proc) onToken() {
	if p.state != stWaitToken {
		// Violated between the grant and this event: pass the token on.
		p.sys.releaseToken()
		return
	}
	g := p.sys.Cfg.Geometry
	p.sys.commitSeq++
	p.wset = p.wset[:0]
	p.Cache.ForEachSpeculative(p.addWrite)

	// Serialize the whole write-set over the bus: addresses + data words.
	bytes := 16
	for _, wl := range p.wset {
		bytes += 16 + wl.words.Count()*g.WordSize
	}
	p.sys.busSend(bytes, p, prCommit, uint64(p.sys.commitSeq))
}

// onCommit applies the broadcast write-set once it has crossed the bus:
// write through to memory, snoop every other processor, release the token.
func (p *proc) onCommit(seq mem.Version) {
	s := p.sys
	if s.Obsv != nil {
		s.Emit(obs.Event{Kind: obs.KCommit, Node: p.ID, Peer: -1, TID: uint64(seq), Arg: int64(p.ReadSet.Len())})
	}
	record := p.NewRecord(seq)
	for _, wl := range p.wset {
		p.RecordWrites(record, wl.base, wl.words, seq)
		mem.SetWords(s.Homes[0].Line(wl.base), uint64(wl.words), seq)
		if s.Obsv != nil {
			s.Emit(obs.Event{Kind: obs.KCommitLine, Node: p.ID, Peer: -1, TID: uint64(seq),
				Addr: uint64(wl.base), Words: uint64(wl.words)})
		}
		// Snoop: every other processor checks the broadcast against its
		// speculative state.
		for _, q := range s.procs {
			if q != p {
				q.snoop(wl.base, wl.words, seq)
			}
		}
	}
	// Write-through: committed lines stay clean and unowned.
	p.Cache.CommitTxWriteThrough(seq)
	s.Log(record)
	s.releaseToken()
	p.Retire(s.Kernel.Now() - p.commitWait)
}

// snoop checks a committed line broadcast against this processor's
// speculative state (the ordered bus makes this synchronous).
func (p *proc) snoop(base mem.Addr, words bits.WordMask, seq mem.Version) {
	line := p.Cache.Peek(base)
	if line == nil {
		return
	}
	overlap := line.SR.Overlaps(words)
	if p.sys.Cfg.LineGranularity {
		overlap = line.SR.Any() && words.Any()
	}
	if p.sys.Obsv != nil {
		p.sys.Emit(obs.Event{Kind: obs.KInv, Node: p.ID, Peer: -1, Addr: uint64(base), Words: uint64(words),
			TID: uint64(seq), SR: uint64(line.SR), SM: uint64(line.SM)})
	}
	if overlap {
		p.Cache.Invalidate(base)
		p.L1.Invalidate(base)
		p.violate()
		return
	}
	if line.SM.Any() || line.SR.Any() {
		line.VW = line.SM
		return
	}
	p.Cache.Invalidate(base)
	p.L1.Invalidate(base)
}

func (p *proc) violate() {
	if p.Waiting {
		return // no speculative state outside a transaction
	}
	p.NoteViolation(int64(p.state))
	if p.state == stWaitToken {
		// Abandon the pending token request by filtering ourselves out.
		q := p.sys.tokenQueue[:0]
		for _, w := range p.sys.tokenQueue {
			if w != p {
				q = append(q, w)
			}
		}
		p.sys.tokenQueue = q
	}
	p.EndAttempt()
	p.Cache.RollbackTx()
	p.state = stRunning
	p.Retry(core.ViolationRestartCost)
}
