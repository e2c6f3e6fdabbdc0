package rival

import (
	"scalabletcc/internal/bits"
	"scalabletcc/internal/cache"
	"scalabletcc/internal/mem"
	"scalabletcc/internal/mesh"
	"scalabletcc/internal/obs"
	"scalabletcc/internal/sim"
	"scalabletcc/internal/stats"
	"scalabletcc/internal/tid"
	"scalabletcc/internal/verify"
	"scalabletcc/internal/workload"
)

// Driver opcodes, run by Thread.Handle. Continuations of one transaction
// attempt carry the attempt's epoch in a1 and die silently if the attempt
// ended meanwhile. Protocol opcodes start at OpProtocol.
const (
	OpStart          uint32 = iota // begin the program
	OpBarrierRelease               // resume after a phase barrier
	OpBeginTx                      // advance to the next transaction
	OpStep                         // a1 = epoch: run the next operation
	OpStartAttempt                 // a1 = epoch: retry the transaction
	OpReadValid                    // a1 = epoch, a2 = word address: the cached copy is current
	OpReadData                     // a1 = epoch, a2 = record: the line data arrived
	OpProtocol                     // first protocol-defined opcode
)

// Protocol is a rival processor: the Handler its events go to, plus the
// steps of a transaction the driver leaves to the protocol.
type Protocol interface {
	sim.Handler
	StartAttempt()         // begin (or retry) the current transaction
	Access(op workload.Op) // perform the Load or Store at OpIdx
	Commit()               // every operation ran: commit the attempt
}

// Thread is one processor's transaction driver. A protocol processor embeds
// it, calls Init, and passes its events to Handle.
type Thread struct {
	M  *Machine
	ID int
	p  Protocol

	Cache   *cache.Cache
	L1      *cache.TagArray
	RNG     *sim.RNG    // backoff stream (Backoff only)
	ReadSet mem.ReadSet // the attempt's first reads

	// Mesh rivals only: the version of each cached line, and the attempt's
	// lines in first-touch order.
	lineVer lineVers
	Lines   TxLines

	Phase, TxIdx int
	Ops          []workload.Op
	OpIdx        int
	Epoch        uint64 // attempt epoch, bumped when an attempt ends
	Attempts     int    // aborted attempts of the current transaction
	Waiting      bool   // at a phase barrier or done: no transaction in progress
	TxStart      sim.Time
	MissStart    sim.Time
	idleStart    sim.Time
	PendUseful   uint64 // the attempt's useful cycles, charged at commit
	PendMiss     uint64 // the attempt's miss cycles, charged at commit
	Breakdown    stats.Breakdown

	groupOf []int32 // home -> 1 + group index while grouping, else 0
}

// Init wires t into m as processor id, driving protocol p, with the L1 and
// L2 caches m's config shapes. Threads must be added in processor order.
func (t *Thread) Init(m *Machine, id int, p Protocol) {
	c := &m.Cfg
	*t = Thread{
		M:       m,
		ID:      id,
		p:       p,
		Cache:   cache.New(c.Geometry, c.L2Size, c.L2Ways),
		L1:      cache.NewTagArray(c.Geometry, c.L1Size, c.L1Ways),
		Waiting: true,
		groupOf: make([]int32, m.Prog.Procs()),
	}
	m.threads = append(m.threads, t)
}

// Handle runs the driver's opcodes and reports whether code is a protocol
// opcode, which the caller must then handle itself.
func (t *Thread) Handle(code uint32, a1, a2 uint64) bool {
	switch code {
	case OpStart:
		t.Phase, t.TxIdx = 0, 0
		t.beginTx()
	case OpBarrierRelease:
		t.Breakdown.Add(stats.Idle, uint64(t.M.Kernel.Now()-t.idleStart))
		t.Phase++
		t.TxIdx = 0
		if t.Phase >= t.M.Prog.Phases() {
			t.M.running--
			return false
		}
		t.beginTx()
	case OpBeginTx:
		t.beginTx()
	case OpStep:
		if a1 == t.Epoch {
			t.Step()
		}
	case OpStartAttempt:
		if a1 == t.Epoch {
			t.p.StartAttempt()
		}
	case OpReadValid:
		if a1 == t.Epoch {
			t.onReadValid(mem.Addr(a2))
		}
	case OpReadData:
		if a1 == t.Epoch {
			r := t.M.Msg(int32(a2))
			t.onReadData(r.Addr, r.Data, r.Version)
		}
		t.M.FreeMsg(int32(a2))
	default:
		return true
	}
	return false
}

func (t *Thread) beginTx() {
	m := t.M
	if t.TxIdx >= m.Prog.TxCount(t.ID, t.Phase) {
		t.Waiting = true
		t.idleStart = m.Kernel.Now()
		if m.Obsv != nil {
			m.Emit(obs.Event{Kind: obs.KBarrier, Node: t.ID, Peer: -1, Arg: int64(t.Phase)})
		}
		m.barrierArrive()
		return
	}
	t.Waiting = false
	t.Ops = m.Prog.Tx(t.ID, t.Phase, t.TxIdx).Ops
	t.Attempts = 0
	t.p.StartAttempt()
}

// ResetAttempt clears the speculative bookkeeping at the start of an
// attempt: the read set, and with the attempt's lines their read-word
// masks.
func (t *Thread) ResetAttempt() {
	t.OpIdx = 0
	t.TxStart = t.M.Kernel.Now()
	t.PendUseful = 0
	t.PendMiss = 0
	t.ReadSet.Reset()
	t.Lines.reset()
}

// Step runs the attempt's next operation now.
func (t *Thread) Step() {
	if t.OpIdx >= len(t.Ops) {
		t.p.Commit()
		return
	}
	op := t.Ops[t.OpIdx]
	if op.Kind == workload.Compute {
		t.OpIdx++
		t.PendUseful += uint64(op.Cycles)
		t.Continue(sim.Time(op.Cycles))
		return
	}
	t.p.Access(op)
}

// Continue runs the attempt's next operation d cycles from now.
func (t *Thread) Continue(d sim.Time) {
	t.M.Kernel.PostAfter(d, t.p, OpStep, t.Epoch, 0)
}

// FinishLocal completes an access served by the local caches: an L1 hit,
// or an L2 hit whose extra latency counts as miss time.
func (t *Thread) FinishLocal(base mem.Addr) {
	lat := t.M.Cfg.L2Latency
	if t.L1.Access(base) {
		lat = t.M.Cfg.L1Latency
	}
	t.PendUseful++
	if lat > 1 {
		t.PendMiss += uint64(lat - 1)
	}
	t.OpIdx++
	t.Continue(lat)
}

// FinishMiss completes an access that waited since MissStart.
func (t *Thread) FinishMiss() {
	t.PendMiss += uint64(t.M.Kernel.Now() - t.MissStart)
	t.PendUseful++
	t.OpIdx++
	t.Continue(1)
}

// FinishRemote completes a mesh rival's access to line base once its home
// answered.
func (t *Thread) FinishRemote(base mem.Addr) {
	t.L1.Access(base)
	t.FinishMiss()
}

// logRead records the first-read version v of word a of the attempt's line
// tl. tl.ReadWords is the read log's dedup, as the cache's SR bits are on
// the TCC and bus machines: a word enters the log once per attempt.
func (t *Thread) logRead(tl *TxLine, a mem.Addr, v mem.Version) {
	w := t.M.Cfg.Geometry.WordIndex(a)
	if tl.ReadWords.Has(w) {
		return
	}
	tl.ReadWords = tl.ReadWords.Set(w)
	t.ReadSet.Append(a, v)
	if t.M.Obsv != nil {
		t.M.Emit(obs.Event{Kind: obs.KRead, Node: t.ID, Peer: -1, Addr: uint64(a), Arg: int64(v)})
	}
}

// NoteViolation counts an aborted attempt and reports it with reason arg.
func (t *Thread) NoteViolation(arg int64) {
	t.M.Violations++
	if t.M.Obsv != nil {
		t.M.Emit(obs.Event{Kind: obs.KViolation, Node: t.ID, Peer: -1, Arg: arg})
	}
}

// EndAttempt charges the aborted attempt as violation time and retires its
// epoch, so its pending continuations die.
func (t *Thread) EndAttempt() {
	t.Breakdown.Add(stats.Violation, uint64(t.M.Kernel.Now()-t.TxStart))
	t.Epoch++
}

// Retry restarts the transaction d cycles from now.
func (t *Thread) Retry(d sim.Time) {
	t.M.Kernel.PostAfter(d, t.p, OpStartAttempt, t.Epoch, 0)
}

// Bounds of the randomized exponential backoff the mesh rivals wait after
// an abort.
const (
	backoffBase sim.Time = 16
	backoffMax  sim.Time = 4096
)

// Backoff ends the attempt and retries after a randomized exponential
// backoff: uniform in [1, min(backoffBase<<(attempts-1), backoffMax)],
// charged as violation time.
func (t *Thread) Backoff() {
	t.EndAttempt()
	t.Attempts++
	shift := t.Attempts - 1
	if shift > 16 {
		shift = 16
	}
	b := backoffBase << uint(shift)
	if b > backoffMax {
		b = backoffMax
	}
	d := sim.Time(1 + t.RNG.Intn(int(b)))
	t.Breakdown.Add(stats.Violation, uint64(d))
	t.Retry(d)
}

// NewRecord starts the commit-log record of the attempt committing at
// version v, or returns nil when the log is off.
func (t *Thread) NewRecord(v mem.Version) *verify.Record {
	if !t.M.CollectLog {
		return nil
	}
	return &verify.Record{
		TID:   tid.TID(v),
		Proc:  t.ID,
		Reads: append(verify.Words(nil), t.ReadSet.Samples()...),
	}
}

// RecordWrites logs the masked words of line base as written at version v;
// r is nil when the log is off.
func (t *Thread) RecordWrites(r *verify.Record, base mem.Addr, words bits.WordMask, v mem.Version) {
	if r == nil {
		return
	}
	for w := 0; w < t.M.Cfg.Geometry.WordsPerLine(); w++ {
		if words.Has(w) {
			r.Writes = append(r.Writes, mem.ReadSample{Addr: t.M.Cfg.Geometry.WordAddr(base, w), Version: v})
		}
	}
}

// Retire accounts a committed attempt — useful and miss cycles, commit
// cycles, committed instructions — and begins the next transaction one
// cycle later.
func (t *Thread) Retire(commit sim.Time) {
	var instr uint64
	for _, op := range t.Ops {
		if op.Kind == workload.Compute {
			instr += uint64(op.Cycles)
		} else {
			instr++
		}
	}
	t.Breakdown.Add(stats.Useful, t.PendUseful)
	t.Breakdown.Add(stats.CacheMiss, t.PendMiss)
	t.Breakdown.Add(stats.Commit, uint64(commit))
	t.M.Commits++
	t.M.Instr += instr
	t.Epoch++
	t.TxIdx++
	t.M.Kernel.PostAfter(1, t.p, OpBeginTx, 0, 0)
}

// ---------------------------------------------------------------------------
// Mesh rivals: per-attempt lines, reads served by a home, grouped requests.

// TxLine is one line's per-attempt state in a mesh rival.
type TxLine struct {
	Base      mem.Addr
	Read      bool          // the home confirmed this attempt's read of the line
	Write     bool          // registered as the line's writer (eager)
	Written   bits.WordMask // locally buffered writes
	ReadWords bits.WordMask // words in the attempt's read log
}

// TxLines is an attempt's line table: dense entries in first-touch order
// behind a generation-reset address index, so a new attempt reuses the
// storage of the last.
type TxLines struct {
	idx mem.AddrIndex
	L   []TxLine
}

func (x *TxLines) reset() {
	x.idx.Reset()
	x.L = x.L[:0]
}

// lineVers maps each cached line's base to the version this processor holds:
// dense entries behind an address index, where a delete moves the last
// entry into the gap.
type lineVers struct {
	idx mem.AddrIndex
	e   []lineVer
}

type lineVer struct {
	base mem.Addr
	v    mem.Version
}

func (x *lineVers) get(base mem.Addr) (mem.Version, bool) {
	if i, ok := x.idx.Get(base); ok {
		return x.e[i].v, true
	}
	return 0, false
}

func (x *lineVers) set(base mem.Addr, v mem.Version) {
	if i, ok := x.idx.Insert(base, int32(len(x.e))); ok {
		x.e[i].v = v
		return
	}
	x.e = append(x.e, lineVer{base, v})
}

func (x *lineVers) del(base mem.Addr) {
	i, ok := x.idx.Get(base)
	if !ok {
		return
	}
	x.idx.Del(base)
	last := len(x.e) - 1
	if int(i) != last {
		x.e[i] = x.e[last]
		x.idx.Set(x.e[i].base, i)
	}
	x.e = x.e[:last]
}

// Lookup returns the attempt's state for line base, or nil if untouched. The
// pointer is valid until the next Line call.
func (x *TxLines) Lookup(base mem.Addr) *TxLine {
	if i, ok := x.idx.Get(base); ok {
		return &x.L[i]
	}
	return nil
}

// Line returns (allocating if needed) the attempt's state for line base.
func (x *TxLines) Line(base mem.Addr) *TxLine {
	if tl := x.Lookup(base); tl != nil {
		return tl
	}
	x.idx.Set(base, int32(len(x.L)))
	x.L = append(x.L, TxLine{Base: base})
	return &x.L[len(x.L)-1]
}

// SendRead asks the home of line base about the first read of word a in a
// request of the given kind, telling it which version of the line this
// processor caches, if any.
func (t *Thread) SendRead(kind uint8, a, base mem.Addr) {
	m := t.M
	t.MissStart = m.Kernel.Now()
	home := m.Map.Home(base, t.ID)
	i, r := m.newMsg(kind, t.ID, home)
	r.Addr = a
	cachedV, hasVer := t.lineVer.get(base)
	r.CachedV, r.Valid = cachedV, hasVer && t.Cache.Peek(base) != nil
	m.Net.SendEvent(t.ID, home, MsgHdr, mesh.ClassMiss, m, mArrive, uint64(i), 0)
}

// SendWord sends a header-only request of the given kind about word a to
// the home of its line.
func (t *Thread) SendWord(kind uint8, a mem.Addr, class mesh.Class) {
	m := t.M
	t.MissStart = m.Kernel.Now()
	home := m.Map.Home(m.Cfg.Geometry.Line(a), t.ID)
	i, r := m.newMsg(kind, t.ID, home)
	r.Addr = a
	m.Net.SendEvent(t.ID, home, MsgHdr, class, m, mArrive, uint64(i), 0)
}

// onReadValid completes a first read whose cached copy the home confirmed
// current.
func (t *Thread) onReadValid(a mem.Addr) {
	base := t.M.Cfg.Geometry.Line(a)
	tl := t.Lines.Line(base)
	tl.Read = true
	line := t.Cache.Lookup(base)
	t.logRead(tl, a, line.Data[t.M.Cfg.Geometry.WordIndex(a)])
	t.FinishRemote(base)
}

// onReadData installs arriving line data at version v and completes the
// first read of word a.
func (t *Thread) onReadData(a mem.Addr, data []mem.Version, v mem.Version) {
	m := t.M
	base := m.Cfg.Geometry.Line(a)
	line := t.Cache.Peek(base)
	if line == nil {
		var victim *cache.Victim
		line, victim = t.Cache.Insert(base, data)
		if victim != nil {
			if m.Obsv != nil {
				m.Emit(obs.Event{Kind: obs.KOverflow, Node: t.ID, Peer: -1, Addr: uint64(victim.Base)})
			}
			t.L1.Invalidate(victim.Base)
			t.lineVer.del(victim.Base)
		}
	} else {
		copy(line.Data, data)
	}
	line.VW = bits.All(m.Cfg.Geometry.WordsPerLine())
	t.lineVer.set(base, v)
	tl := t.Lines.Line(base)
	tl.Read = true
	if m.Obsv != nil {
		m.Emit(obs.Event{Kind: obs.KFill, Node: t.ID, Peer: -1, Addr: uint64(base), TID: uint64(v)})
	}
	t.logRead(tl, a, line.Data[m.Cfg.Geometry.WordIndex(a)])
	t.FinishRemote(base)
}

// HomeGroup batches one request's lines for a single home.
type HomeGroup struct {
	Home   int
	Bases  []mem.Addr
	Locked bool // tl2 lock phase: this home's all-or-nothing acquisition succeeded
}

// GroupByHome batches the attempt's lines that want selects into one group
// per home, preserving first-touch order for determinism. It reuses dst's
// groups and their base slices.
func (t *Thread) GroupByHome(dst []HomeGroup, want func(*TxLine) bool) []HomeGroup {
	dst = dst[:0]
	for i := range t.Lines.L {
		tl := &t.Lines.L[i]
		if !want(tl) {
			continue
		}
		home := t.M.Map.Home(tl.Base, t.ID)
		gi := t.groupOf[home] - 1
		if gi < 0 {
			gi = int32(len(dst))
			t.groupOf[home] = gi + 1
			if len(dst) < cap(dst) {
				dst = dst[:gi+1]
			} else {
				dst = append(dst, HomeGroup{})
			}
			dst[gi] = HomeGroup{Home: home, Bases: dst[gi].Bases[:0]}
		}
		dst[gi].Bases = append(dst[gi].Bases, tl.Base)
	}
	for _, g := range dst {
		t.groupOf[g.Home] = 0
	}
	return dst
}

// SendGroup ships group g's line addresses to its home as a request of the
// given kind and returns the record.
func (t *Thread) SendGroup(kind uint8, g *HomeGroup) *Msg {
	m := t.M
	i, r := m.newMsg(kind, t.ID, g.Home)
	r.Bases = append(r.Bases, g.Bases...)
	m.Net.SendEvent(t.ID, g.Home, MsgHdr+LineAddr*len(g.Bases), mesh.ClassCommit, m, mArrive, uint64(i), 0)
	return r
}

// SendCommit ships group g's lines with their written words, tagged v, to
// its home as a request of the given kind. It is write-back traffic if it
// carries any data.
func (t *Thread) SendCommit(kind uint8, g *HomeGroup, v mem.Version) {
	m := t.M
	i, r := m.newMsg(kind, t.ID, g.Home)
	r.Version = v
	r.Bases = append(r.Bases, g.Bases...)
	bytes, class := MsgHdr, mesh.ClassCommit
	for _, base := range g.Bases {
		w := t.Lines.Lookup(base).Written
		r.Masks = append(r.Masks, w)
		bytes += LineAddr + w.Count()*m.Cfg.Geometry.WordSize
		if w.Any() {
			class = mesh.ClassWriteBack
		}
	}
	m.Net.SendEvent(t.ID, g.Home, bytes, class, m, mArrive, uint64(i), 0)
}

// CommitLines applies the committed attempt's buffered writes, tagged v, to
// the commit record r (nil when the log is off) and to the cached copies of
// lines whose read the home confirmed: their unwritten words still match
// memory, so such a copy is now current at v.
func (t *Thread) CommitLines(r *verify.Record, v mem.Version) {
	for i := range t.Lines.L {
		tl := &t.Lines.L[i]
		if !tl.Written.Any() {
			continue
		}
		t.RecordWrites(r, tl.Base, tl.Written, v)
		if line := t.Cache.Peek(tl.Base); line != nil && tl.Read {
			for w := range line.Data {
				if tl.Written.Has(w) {
					line.Data[w] = v
				}
			}
			t.lineVer.set(tl.Base, v)
		}
	}
}

// ReadLocal serves a load of word a in line base from the attempt's own
// state if it can: a buffered write, or a line whose read the home already
// confirmed and that is still cached. It reports whether it did; a confirmed
// line that was evicted loses its confirmation when drop is set.
func (t *Thread) ReadLocal(a, base mem.Addr, drop bool) bool {
	tl := t.Lines.Lookup(base)
	if tl == nil {
		return false
	}
	w := t.M.Cfg.Geometry.WordIndex(a)
	if tl.Written.Has(w) {
		// Own buffered write: excluded from the read log.
		t.FinishLocal(base)
		return true
	}
	if tl.Read {
		if line := t.Cache.Lookup(base); line != nil {
			t.logRead(tl, a, line.Data[w])
			t.FinishLocal(base)
			return true
		}
		if drop {
			tl.Read = false
		}
	}
	return false
}
