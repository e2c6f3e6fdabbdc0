package core

import (
	"fmt"

	"scalabletcc/internal/bits"
	"scalabletcc/internal/mem"
	"scalabletcc/internal/obs"
	"scalabletcc/internal/sim"
	"scalabletcc/internal/stats"
	"scalabletcc/internal/tid"
)

// dirEntry is the directory state for one cache line homed at this node
// (Figure 4): the speculative sharers list, the owner (a committer whose
// data has not yet been written back), the Marked bit for the in-flight
// commit, and the TID tag that resolves the unordered-network write-back
// race.
type dirEntry struct {
	sharers    bits.NodeSet
	owner      int           // node holding committed data newer than memory; -1 none
	ownerTID   tid.TID       // TID of the commit that produced the owned data
	ownedWords bits.WordMask // the words whose latest data lives at the owner
	marked     bool
	inMem      bool // memory has served or merged the line (snapshot order)
	markWords  bits.WordMask
	markData   []mem.Version // write-through commit mode only; pooled buffer
	// pendingFrom lists nodes whose committed data is known to be in flight
	// toward memory (owner flushes for load forwarding, commit-time
	// ownership-transfer flushes, or the write-backs that substitute for
	// either when the owner evicted first). While non-empty, loads must not
	// be served from memory: it may lack committed words.
	pendingFrom []int
}

// expectDataFrom records that node owes this line's memory a data return
// (flush response or write-back). At most one expectation per node: a node
// holds at most one dirty copy, which produces exactly one data return.
func (e *dirEntry) expectDataFrom(node int) {
	for _, n := range e.pendingFrom {
		if n == node {
			return
		}
	}
	e.pendingFrom = append(e.pendingFrom, node)
}

// dataArrivedFrom retires node's expectation, if any.
func (e *dirEntry) dataArrivedFrom(node int) {
	for i, n := range e.pendingFrom {
		if n == node {
			e.pendingFrom = append(e.pendingFrom[:i], e.pendingFrom[i+1:]...)
			return
		}
	}
}

// dataPending reports whether committed data is still in flight to memory.
func (e *dirEntry) dataPending() bool { return len(e.pendingFrom) > 0 }

func (e *dirEntry) hasRemoteSharer(home int) bool {
	remote := false
	e.sharers.ForEach(func(n int) {
		if n != home {
			remote = true
		}
	})
	return remote || (e.owner >= 0 && e.owner != home)
}

type pendingProbe struct {
	t     tid.TID
	write bool
	from  int
}

type pendingLoad struct {
	addr   mem.Addr
	from   int
	reqTID tid.TID
}

// stallQueue holds the loads waiting on one line base.
type stallQueue struct {
	base  mem.Addr
	loads []pendingLoad
}

// DirStats are the per-directory counters behind Table 3's directory
// columns.
type DirStats struct {
	DirCacheMisses  uint64 // bounded-directory-cache misses
	CommitsServiced uint64
	SkipsProcessed  uint64
	AbortsProcessed uint64
	LoadsServiced   uint64
	LoadsStalled    uint64 // loads that hit a Marked line and had to wait
	Forwards        uint64 // loads served by an owner flush
	WriteBacks      uint64
	DroppedWBs      uint64 // stale write-backs dropped by the TID-tag race fix
	Invalidations   uint64
	BusyCycles      uint64
}

// Directory is one node's directory controller plus its local memory bank.
type Directory struct {
	sys  *System
	node int

	nstid tid.TID
	// done[i] set means TID (nstid + i) has been fully accounted at this
	// directory (skipped, aborted, or committed). Bit 0 being set triggers
	// the Skip-Vector shift of Figure 5.
	done bits.BitVec

	// Line storage: lines resolves a line base to a dense id (its bases
	// are the first-touch order sweeps and snapshots follow) and holds the
	// lines' memory words by id; the entry bodies live in fixed-size chunks
	// under the same id, so pointers and slices taken by callers never move.
	// memOrder lists ids in the order memory first served or merged them,
	// the order the memory bank snapshots in.
	lines     mem.LineStore
	entChunks [][]dirEntry
	memOrder  []int32

	markedLines      []mem.Addr // lines marked by the currently-serviced TID
	markOwner        int        // processor that sent the current marks
	commitBusy       bool       // Commit received; acks/flushes outstanding
	commitAcks       int        // outstanding invalidation acknowledgements
	commitFlushes    int        // outstanding old-owner flush-invalidates
	pendingCommitTID tid.TID

	probes   []pendingProbe
	probeMin tid.TID // smallest TID among deferred probes (valid when probes is non-empty)
	// stalled loads, grouped per line base. A dense slice beats a map here:
	// the set is almost always empty or tiny, wakeups are keyed lookups, and
	// the queue slices recycle through stallFree instead of being garbage.
	stalls        []stallQueue
	stallFree     [][]pendingLoad
	nextFree      sim.Time // occupancy: the directory pipeline's next free cycle
	sharerScratch []int    // reusable snapshot of a line's sharers

	// Directory-cache model: an LRU list over entry ids when
	// DirCacheEntries is bounded. A miss costs an extra MemLatency of
	// occupancy (the full directory lives in DRAM).
	dirCache dirCacheLRU

	remoteEntries int

	stats   DirStats
	occHist stats.Histogram // busy cycles per serviced commit
	wsHist  stats.Histogram // working-set samples (entries w/ remote sharers)
	curBusy uint64          // busy cycles attributed to the current commit
}

func newDirectory(sys *System, node int) *Directory {
	return &Directory{
		sys:   sys,
		node:  node,
		nstid: 1,
		lines: mem.NewLineStore(sys.cfg.Geometry),
	}
}

// NSTID returns the directory's Now Serving TID.
func (d *Directory) NSTID() tid.TID { return d.nstid }

// Stats returns a copy of the directory's counters.
func (d *Directory) Stats() DirStats { return d.stats }

// dirChunk is how many directory entries each storage chunk holds (a power
// of two, so entryAt resolves an id with a shift and a mask).
const (
	dirChunkShift = 7
	dirChunk      = 1 << dirChunkShift
)

// entryAt returns the entry body for a dense id.
func (d *Directory) entryAt(id int32) *dirEntry {
	return &d.entChunks[id>>dirChunkShift][id&(dirChunk-1)]
}

// entryCount returns the number of distinct lines this directory has seen.
func (d *Directory) entryCount() int { return d.lines.Len() }

// lookupEntry returns the entry for base without allocating one and without
// charging a directory-cache access (the auditor's probe).
func (d *Directory) lookupEntry(base mem.Addr) *dirEntry {
	if id, ok := d.lines.Lookup(base); ok {
		return d.entryAt(id)
	}
	return nil
}

// entry returns (allocating) the directory entry for a line base and its
// id, charging a directory-cache miss when the bounded cache does not hold
// it.
func (d *Directory) entry(base mem.Addr) (*dirEntry, int32) {
	id, fresh := d.lines.ID(base)
	if fresh {
		d.newEntry(id)
	}
	d.touchDirCache(id)
	return d.entryAt(id), id
}

// newEntry initializes the entry of a line's first id, carving a chunk of
// entries when the last one is full.
func (d *Directory) newEntry(id int32) {
	if id&(dirChunk-1) == 0 {
		d.entChunks = append(d.entChunks, make([]dirEntry, dirChunk))
		if d.sys.cfg.DirCacheEntries > 0 {
			d.dirCache.grow()
		}
	}
	d.entryAt(id).owner = -1
}

// memLine returns line id's memory words (live storage, all zero until a
// commit reaches memory), recording the line's first touch of memory.
func (d *Directory) memLine(id int32) []mem.Version {
	if e := d.entryAt(id); !e.inMem {
		e.inMem = true
		d.memOrder = append(d.memOrder, id)
	}
	return d.lines.Words(id)
}

// touchDirCache models a finite directory cache: an LRU set of entries. A
// miss extends the directory pipeline's busy time by MemLatency (fetching
// the entry from the DRAM-backed full directory).
func (d *Directory) touchDirCache(id int32) {
	capacity := d.sys.cfg.DirCacheEntries
	if capacity <= 0 {
		return
	}
	if !d.dirCache.touch(id, capacity) {
		d.stats.DirCacheMisses++
		d.nextFree += d.sys.cfg.MemLatency
		d.stats.BusyCycles += uint64(d.sys.cfg.MemLatency)
	}
}

// dirCacheLRU is the bounded directory cache's residency: a doubly linked
// list over entry ids, most recently touched first, each resident carrying
// the clock stamp of its last touch. A touch moves its entry to the front,
// so the back always holds the oldest stamp, and a miss at capacity evicts
// it in O(1). The links live in chunks parallel to the entry chunks.
type dirCacheLRU struct {
	links      [][]dirCacheLink
	head, tail int32 // valid while n > 0
	n          int   // resident entries
	clock      uint64
}

// dirCacheLink is one entry's place in the list.
type dirCacheLink struct {
	prev, next int32 // neighbours toward the front and the back; -1 at the ends
	stamp      uint64
	in         bool // resident
}

func (c *dirCacheLRU) link(id int32) *dirCacheLink {
	return &c.links[id>>dirChunkShift][id&(dirChunk-1)]
}

// grow adds links for the next chunk of entry ids.
func (c *dirCacheLRU) grow() { c.links = append(c.links, make([]dirCacheLink, dirChunk)) }

// touch stamps entry id as the most recently used, evicting the least
// recently used resident when id misses a full cache, and reports a hit.
func (c *dirCacheLRU) touch(id int32, capacity int) bool {
	c.clock++
	l := c.link(id)
	hit := l.in
	if hit {
		c.unlink(id)
	} else if c.n >= capacity {
		v := c.tail
		c.unlink(v)
		c.link(v).in = false
	}
	c.pushFront(id, c.clock)
	return hit
}

func (c *dirCacheLRU) unlink(id int32) {
	l := c.link(id)
	if l.prev >= 0 {
		c.link(l.prev).next = l.next
	} else {
		c.head = l.next
	}
	if l.next >= 0 {
		c.link(l.next).prev = l.prev
	} else {
		c.tail = l.prev
	}
	c.n--
}

// pushFront makes id the resident at the front, stamped stamp.
func (c *dirCacheLRU) pushFront(id int32, stamp uint64) {
	l := c.link(id)
	l.prev, l.next = -1, -1
	if c.n == 0 {
		c.tail = id
	} else {
		l.next = c.head
		c.link(c.head).prev = id
	}
	c.head = id
	c.n++
	l.in, l.stamp = true, stamp
}

// enqueueMsg admits an arriving protocol message to the directory pipeline:
// the message occupies the pipeline for its service cost, then executes.
// This models the directory-cache occupancy and queuing of the paper's
// methodology. The message record stays alive (and immutable) until the
// pipeline stage runs.
func (d *Directory) enqueueMsg(i int32) {
	cost := d.sys.cfg.DirLatency
	switch d.sys.msgs[i].kind {
	case MsgCommit:
		cost += sim.Time(len(d.markedLines))
	case MsgInvAck:
		cost = 1
	}
	k := d.sys.kernel
	start := k.Now()
	if d.nextFree > start {
		start = d.nextFree
	}
	d.nextFree = start + cost
	d.stats.BusyCycles += uint64(cost)
	d.curBusy += uint64(cost)
	k.Post(start+cost, d, dirExec, uint64(i), 0)
}

// HandleEvent runs the directory's typed kernel events: pipeline-stage
// completions (dirExec) and prepared memory reads becoming ready to send
// (dirMemReady). The message is read in place through a pointer: exec*
// handlers may allocate new messages (moving the slab), but each exec* call's
// arguments are field loads evaluated before the handler body runs, and the
// pointer is never dereferenced after a handler returns.
func (d *Directory) HandleEvent(code uint32, a1, a2 uint64) {
	switch code {
	case dirExec:
		i := int32(a1)
		d.exec(&d.sys.msgs[i])
		if d.sys.aud != nil {
			// Re-take the pointer: exec may have grown the slab.
			d.sys.aud.onDirExec(d, &d.sys.msgs[i])
		}
		d.sys.freeMsg(i)
	case dirMemReady:
		d.sys.sendMsg(int32(a1))
	default:
		panic("core: unknown directory event")
	}
}

func (d *Directory) exec(m *protoMsg) {
	switch m.kind {
	case MsgSkip:
		d.execSkip(m.t)
	case MsgProbe:
		d.execProbe(m.t, m.flag, int(m.src))
	case MsgMark:
		d.execMark(m.t, m.addr, m.words, m.data, int(m.src))
	case MsgCommit:
		d.execCommit(m.t, int(m.src))
	case MsgFlushInvResp:
		d.execFlushInvResp(m.addr, m.words, m.data, int(m.src))
	case MsgInvAck:
		d.execInvAck()
	case MsgAbort:
		d.execAbort(m.t)
	case MsgLoadReq:
		d.serveLoad(m.addr, int(m.src), m.t, true)
	case MsgFlushResp:
		d.execFlushResp(m.addr, m.data, int(m.src))
	case MsgFlushNack:
		d.execFlushNack(m.addr, int(m.src))
	case MsgWriteBack:
		d.execWriteBack(m.addr, m.t, m.words, m.data, int(m.src), m.flag)
	default:
		panic(fmt.Sprintf("dir %d: unexpected message kind %v", d.node, m.kind))
	}
}

// trackRemote updates the remote-working-set counter around a mutation of e.
func (d *Directory) trackRemote(e *dirEntry, mutate func()) {
	before := e.hasRemoteSharer(d.node)
	mutate()
	after := e.hasRemoteSharer(d.node)
	switch {
	case !before && after:
		d.remoteEntries++
	case before && !after:
		d.remoteEntries--
	}
}

// ---------------------------------------------------------------------------
// TID accounting: the NSTID register and Skip Vector.

// noteDone records that TID t has been fully accounted at this directory and
// advances NSTID as far as the Skip Vector allows.
func (d *Directory) noteDone(t tid.TID) {
	if t < d.nstid {
		panic(fmt.Sprintf("dir %d: duplicate completion of TID %d (NSTID %d)", d.node, t, d.nstid))
	}
	d.done.Set(int(t - d.nstid))
	d.tryAdvance()
	if d.sys.aud != nil {
		d.sys.aud.onDirAccount(d)
	}
}

func (d *Directory) tryAdvance() {
	if d.commitBusy {
		return
	}
	n := d.done.LeadingOnes()
	if n == 0 {
		return
	}
	d.done.ShiftOutLow(n)
	d.nstid += tid.TID(n)
	d.answerProbes()
}

// answerProbes responds to deferred probes whose condition is now met
// (NSTID >= probed TID). A write probe for a TID the directory has already
// passed belongs to an aborted attempt; it is answered anyway and the
// processor discards it by matching the probe's TID.
//
// probeMin — the smallest deferred TID — makes the common advance O(1):
// NSTID ticks forward one accounted TID at a time, so most advances release
// nothing and the queue must not be rescanned for each of them. Only when
// the watermark is actually crossed does the scan (and min rebuild) run,
// touching each pending probe once per releasing advance.
func (d *Directory) answerProbes() {
	if len(d.probes) == 0 || d.nstid < d.probeMin {
		return
	}
	keep := d.probes[:0]
	min := tid.TID(0)
	for _, p := range d.probes {
		if d.nstid >= p.t {
			d.respondProbe(p)
		} else {
			if len(keep) == 0 || p.t < min {
				min = p.t
			}
			keep = append(keep, p)
		}
	}
	d.probes = keep
	d.probeMin = min
}

func (d *Directory) respondProbe(p pendingProbe) {
	nstid := d.nstid
	if d.sys.obsv != nil {
		d.sys.emit(obs.Event{Kind: obs.KProbeResp, Node: d.node, Peer: p.from, TID: uint64(p.t), TID2: uint64(nstid)})
	}
	i, m := d.sys.newMsg(MsgProbeResp, d.node, p.from)
	m.t = p.t
	m.t2 = nstid
	d.sys.sendMsg(i)
}

// ---------------------------------------------------------------------------
// Message execution. Each exec* runs when the message's pipeline stage
// completes.

func (d *Directory) execSkip(t tid.TID) {
	if d.sys.obsv != nil {
		d.sys.emit(obs.Event{Kind: obs.KSkip, Node: d.node, Peer: -1, TID: uint64(t), TID2: uint64(d.nstid)})
	}
	d.stats.SkipsProcessed++
	d.noteDone(t)
}

func (d *Directory) execProbe(t tid.TID, write bool, from int) {
	if d.sys.obsv != nil {
		e := obs.Event{Kind: obs.KProbe, Node: d.node, Peer: from, TID: uint64(t)}
		if write {
			e.Arg = 1
		}
		d.sys.emit(e)
	}
	p := pendingProbe{t: t, write: write, from: from}
	if !d.sys.cfg.DeferredProbes {
		// Repeated-probing ablation: always answer with the current NSTID.
		d.respondProbe(p)
		return
	}
	if d.nstid >= t {
		d.respondProbe(p)
		return
	}
	if len(d.probes) == 0 || t < d.probeMin {
		d.probeMin = t
	}
	d.probes = append(d.probes, p)
}

func (d *Directory) execMark(t tid.TID, base mem.Addr, words bits.WordMask, data []mem.Version, from int) {
	if t != d.nstid {
		panic(fmt.Sprintf("dir %d: Mark for TID %d while serving %d", d.node, t, d.nstid))
	}
	if d.sys.obsv != nil {
		d.sys.emit(obs.Event{Kind: obs.KMark, Node: d.node, Peer: from, TID: uint64(t), Addr: uint64(base), Words: uint64(words)})
	}
	e, _ := d.entry(base)
	if !e.marked {
		d.markedLines = append(d.markedLines, base)
	}
	d.markOwner = from
	e.marked = true
	e.markWords |= words
	if d.sys.cfg.WriteThroughCommit && data != nil {
		if e.markData == nil {
			buf := d.sys.acquireBuf()
			for w := range buf {
				buf[w] = 0
			}
			e.markData = buf
		}
		for w := range data {
			if words.Has(w) {
				e.markData[w] = data[w]
			}
		}
	}
}

func (d *Directory) execCommit(t tid.TID, from int) {
	if t != d.nstid {
		panic(fmt.Sprintf("dir %d: Commit for TID %d while serving %d", d.node, t, d.nstid))
	}
	d.stats.CommitsServiced++
	d.commitBusy = true
	d.commitAcks = 0
	d.commitFlushes = 0
	d.pendingCommitTID = t
	g := d.sys.cfg.Geometry

	for _, base := range d.markedLines {
		e, id := d.entry(base)
		words := e.markWords
		invMask := words
		if d.sys.cfg.LineGranularity {
			invMask = bits.All(g.WordsPerLine())
		}
		oldOwner, oldOW := e.owner, e.ownedWords
		if d.sys.obsv != nil {
			d.sys.emit(obs.Event{Kind: obs.KCommitLine, Node: d.node, Peer: from, TID: uint64(t),
				Addr: uint64(base), Words: uint64(words), Set: e.sharers.String(), Arg: int64(oldOwner)})
		}
		// Gang-upgrade Marked -> Owned; invalidate all sharers except
		// the committer, which becomes the new owner. A displaced
		// foreign owner gets a combined flush+invalidate so the words
		// only it holds are salvaged into memory before the commit
		// completes.
		d.trackRemote(e, func() {
			d.sharerScratch = d.sharerScratch[:0]
			e.sharers.ForEach(func(n int) { d.sharerScratch = append(d.sharerScratch, n) })
			for _, s := range d.sharerScratch {
				if s == from {
					continue
				}
				d.stats.Invalidations++
				if s == oldOwner {
					d.commitFlushes++
					e.expectDataFrom(s)
					d.sendFlushInv(s, base, t, invMask, oldOW)
				} else {
					d.commitAcks++
					d.sendInv(s, base, t, invMask)
				}
				e.sharers.Clear(s)
			}
			e.marked = false
			e.markWords = 0
			e.sharers.Set(from)
			e.ownerTID = t
			if d.sys.cfg.WriteThroughCommit {
				// Data arrived with the marks: memory is updated now and
				// no owner is recorded.
				mem.MergeMonotonic(d.memLine(id), uint64(words), e.markData)
				if e.markData != nil {
					d.sys.releaseBuf(e.markData)
					e.markData = nil
				}
				e.owner = -1
				e.ownedWords = 0
			} else if oldOwner == from {
				e.ownedWords |= words
			} else {
				e.owner = from
				e.ownedWords = words
			}
		})
		d.wakeStalled(base)
	}
	d.markedLines = d.markedLines[:0]
	if d.commitAcks == 0 && d.commitFlushes == 0 {
		d.finishCommit(t)
	}
	// Otherwise finishCommit runs when the last ack/flush arrives.
}

func (d *Directory) sendFlushInv(to int, base mem.Addr, committer tid.TID, words, oldOW bits.WordMask) {
	i, m := d.sys.newMsg(MsgFlushInv, d.node, to)
	m.addr = base
	m.t = committer
	m.words = words
	m.words2 = oldOW
	d.sys.sendMsg(i)
}

// execFlushInvResp completes a commit-time ownership transfer: the old
// owner's data is merged into memory. A nil payload means the old owner's
// data return was already in flight (as a write-back or an earlier flush
// response), which retires the expectation instead.
func (d *Directory) execFlushInvResp(base mem.Addr, oldOW bits.WordMask, data []mem.Version, from int) {
	e, id := d.entry(base)
	if data != nil {
		mem.MergeMonotonic(d.memLine(id), uint64(oldOW), data)
		e.dataArrivedFrom(from)
		if !e.dataPending() {
			d.wakeStalled(base)
		}
	}
	if !d.commitBusy || d.commitFlushes <= 0 {
		panic(fmt.Sprintf("dir %d: unexpected FlushInvResp", d.node))
	}
	d.commitFlushes--
	if d.commitAcks == 0 && d.commitFlushes == 0 {
		d.finishCommit(d.pendingCommitTID)
	}
}

func (d *Directory) sendInv(to int, base mem.Addr, committer tid.TID, words bits.WordMask) {
	i, m := d.sys.newMsg(MsgInv, d.node, to)
	m.addr = base
	m.t = committer
	m.words = words
	d.sys.sendMsg(i)
}

func (d *Directory) execInvAck() {
	if d.sys.obsv != nil {
		d.sys.emit(obs.Event{Kind: obs.KInvAck, Node: d.node, Peer: -1, TID: uint64(d.pendingCommitTID)})
	}
	if !d.commitBusy || d.commitAcks <= 0 {
		panic(fmt.Sprintf("dir %d: unexpected InvAck", d.node))
	}
	d.commitAcks--
	if d.commitAcks == 0 && d.commitFlushes == 0 {
		d.finishCommit(d.pendingCommitTID)
	}
}

func (d *Directory) finishCommit(t tid.TID) {
	if d.sys.obsv != nil {
		d.sys.emit(obs.Event{Kind: obs.KCommitDone, Node: d.node, Peer: -1, TID: uint64(t)})
	}
	d.commitBusy = false
	d.occHist.Add(d.curBusy)
	d.curBusy = 0
	d.wsHist.Add(uint64(d.remoteEntries))
	d.noteDone(t)
}

// execAbort clears the TID's marks and accounts it as skipped.
func (d *Directory) execAbort(t tid.TID) {
	if d.sys.obsv != nil {
		d.sys.emit(obs.Event{Kind: obs.KAbort, Node: d.node, Peer: -1, TID: uint64(t), TID2: uint64(d.nstid)})
	}
	d.stats.AbortsProcessed++
	if t < d.nstid {
		panic(fmt.Sprintf("dir %d: Abort for past TID %d (NSTID %d)", d.node, t, d.nstid))
	}
	if t == d.nstid {
		for _, base := range d.markedLines {
			e, _ := d.entry(base)
			e.marked = false
			e.markWords = 0
			if e.markData != nil {
				d.sys.releaseBuf(e.markData)
				e.markData = nil
			}
			d.wakeStalled(base)
		}
		d.markedLines = d.markedLines[:0]
		d.curBusy = 0
	}
	// If t > NSTID the directory never served t, so t has no marks here.
	d.noteDone(t)
}

// ---------------------------------------------------------------------------
// Loads, owner forwarding, and write-backs.

// serveLoad implements the load path: stall on Marked lines, forward to the
// owner on true sharing, otherwise serve from memory.
func (d *Directory) serveLoad(addr mem.Addr, from int, reqTID tid.TID, first bool) {
	g := d.sys.cfg.Geometry
	base := g.Line(addr)
	e, id := d.entry(base)

	stall := func() {
		if first {
			d.stats.LoadsStalled++
		}
		d.stallOn(base, pendingLoad{addr: addr, from: from, reqTID: reqTID})
	}

	// A load from a transaction whose TID is lower than the marking TID
	// (the directory's NSTID) is logically earlier than the pending commit:
	// it is entitled to the pre-commit data, and the commit's invalidation
	// cannot violate it. Stalling it can deadlock TID ordering (the marker
	// may be waiting for the lower TID to commit elsewhere).
	lowerThanMark := reqTID != tid.None && reqTID < d.nstid

	switch {
	case e.marked && from != d.markOwner && !lowerThanMark:
		// "Any processor that attempts to load a marked line will be
		// stalled by the corresponding directory." The marking processor
		// itself is exempt: its refill of its own marked line cannot be
		// invalidated by its own commit, and stalling it would deadlock the
		// commit it is trying to finish.
		stall()
	case e.dataPending():
		// Committed data for this line is in flight to memory; serving now
		// could miss it.
		stall()
	case e.owner >= 0 && e.owner != from:
		// True sharing: ask the owner to flush, then serve.
		d.stats.Forwards++
		if d.sys.obsv != nil {
			d.sys.emit(obs.Event{Kind: obs.KForward, Node: d.node, Peer: from, Addr: uint64(base), Arg: int64(e.owner)})
		}
		e.expectDataFrom(e.owner)
		stall()
		i, m := d.sys.newMsg(MsgFlushReq, d.node, e.owner)
		m.addr = base
		d.sys.sendMsg(i)
	default:
		// Includes owner == from: an owner refilling the invalid words of
		// its partially-valid line is served from memory; the processor's
		// fill merge never overwrites locally-valid (owned) words.
		d.stats.LoadsServiced++
		words := d.memLine(id)
		if d.sys.obsv != nil {
			d.sys.emit(obs.Event{Kind: obs.KLoad, Node: d.node, Peer: from, Addr: uint64(base),
				Data: obsData(words), Set: e.sharers.String(), Arg: int64(e.owner)})
		}
		d.trackRemote(e, func() { e.sharers.Set(from) })
		// Snapshot memory now (the load's serialization point); the response
		// leaves for the requester after the memory access latency.
		i, m := d.sys.newMsg(MsgLoadResp, d.node, from)
		m.addr = base
		m.data = d.sys.copyLine(words)
		d.sys.kernel.PostAfter(d.sys.cfg.MemLatency, d, dirMemReady, uint64(i), 0)
	}
}

// stallOn queues a load on a line base, reusing a pooled queue slice.
func (d *Directory) stallOn(base mem.Addr, pl pendingLoad) {
	for i := range d.stalls {
		if d.stalls[i].base == base {
			d.stalls[i].loads = append(d.stalls[i].loads, pl)
			return
		}
	}
	var q []pendingLoad
	if n := len(d.stallFree); n > 0 {
		q = d.stallFree[n-1][:0]
		d.stallFree = d.stallFree[:n-1]
	}
	d.stalls = append(d.stalls, stallQueue{base: base, loads: append(q, pl)})
}

// wakeStalled retries the loads queued on a line.
func (d *Directory) wakeStalled(base mem.Addr) {
	for i := range d.stalls {
		if d.stalls[i].base != base {
			continue
		}
		q := d.stalls[i].loads
		// Detach the queue before replaying: a retried load may stall again
		// on the same base, which must start a fresh queue.
		last := len(d.stalls) - 1
		d.stalls[i] = d.stalls[last]
		d.stalls = d.stalls[:last]
		for _, pl := range q {
			d.serveLoad(pl.addr, pl.from, pl.reqTID, false)
		}
		d.stallFree = append(d.stallFree, q)
		return
	}
}

func (d *Directory) execFlushResp(base mem.Addr, data []mem.Version, from int) {
	e, id := d.entry(base)
	if d.sys.obsv != nil {
		d.sys.emit(obs.Event{Kind: obs.KFlushResp, Node: d.node, Peer: from, Addr: uint64(base),
			Data: obsData(data), Arg: int64(e.owner)})
	}
	// Monotonic merge: stale words in the flushed line (the owner's
	// partially-invalidated copies) can never roll memory back.
	mem.MergeMonotonic(d.memLine(id), ^uint64(0), data)
	if e.owner == from {
		d.trackRemote(e, func() {
			e.owner = -1
			e.ownedWords = 0
			// The flushing owner keeps its copy and remains a sharer
			// (Table 1 "Flush: write back ... leaving it in cache"), so
			// its SR tracking keeps working.
		})
	}
	e.dataArrivedFrom(from)
	if !e.dataPending() {
		d.wakeStalled(base)
	}
}

func (d *Directory) execFlushNack(base mem.Addr, from int) {
	_ = from
	e, _ := d.entry(base)
	// The owner no longer holds the line: its data return is (or was) in
	// flight as a write-back or an earlier flush response. The recorded
	// expectation stays until that return lands; if it already did,
	// stalled loads can go.
	if !e.dataPending() {
		d.wakeStalled(base)
	}
}

// execWriteBack handles committed data returning to memory. remove reports
// whether the sender dropped its copy (an eviction) or kept it (the
// dirty-bit rule's flush before a speculative overwrite — Table 1's Flush
// semantics), which decides whether the sender stays a sharer.
func (d *Directory) execWriteBack(base mem.Addr, tag tid.TID, words bits.WordMask, data []mem.Version, from int, remove bool) {
	e, id := d.entry(base)
	// Word-granular form of the race-elimination rule: an out-of-order
	// stale write-back never rolls memory back; a fully-stale one is
	// counted as dropped (the paper's TID-tag drop).
	if d.sys.obsv != nil {
		ev := obs.Event{Kind: obs.KWriteBack, Node: d.node, Peer: from, Addr: uint64(base),
			TID2: uint64(tag), Words: uint64(words), Data: obsData(data)}
		if remove {
			ev.Arg = 1
		}
		d.sys.emit(ev)
	}
	if mem.MergeMonotonic(d.memLine(id), uint64(words), data) == 0 && e.ownerTID > tag {
		d.stats.DroppedWBs++
	} else {
		d.stats.WriteBacks++
	}
	d.trackRemote(e, func() {
		if e.owner == from && tag >= e.ownerTID {
			e.owner = -1
			e.ownedWords = 0
		}
		if remove {
			e.sharers.Clear(from)
		}
	})
	e.dataArrivedFrom(from)
	if !e.dataPending() {
		d.wakeStalled(base)
	}
}
