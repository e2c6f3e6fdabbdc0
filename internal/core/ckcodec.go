package core

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"

	"scalabletcc/internal/bits"
	"scalabletcc/internal/cache"
	"scalabletcc/internal/mem"
	"scalabletcc/internal/mesh"
	"scalabletcc/internal/obs"
	"scalabletcc/internal/sim"
	"scalabletcc/internal/tid"
	"scalabletcc/internal/verify"
)

// The kernel-checkpoint codec (DESIGN §34): json.Marshal's bytes for a
// Checkpoint, written and read without reflection. Every field of every
// snapshot type is an integer, a bool or a slice of them, apart from two
// ASCII strings, so each type gets one append function and one read function,
// side by side, that spell out its keys in field order.
//
// The encoder writes exactly what json.Marshal writes: keys in field order,
// an omitempty field absent iff it is zero, null for a nil slice or pointer.
// Strings go through obs.AppendString, which hands anything json.Marshal
// would escape to json.Marshal; record sides go through verify.Words'
// AppendJSON.
//
// The decoder reads only that canonical form. At the first byte that
// json.Marshal could not have written there — white space, a key out of
// order, unknown or repeated, a zero omitempty value, a leading zero, a
// sign, fraction or exponent where none belongs, an escape, an overflow, a
// port_state — it gives up, and DecodeCheckpoint decodes the whole input
// with json.Unmarshal instead. Canonical input is valid JSON that
// json.Unmarshal decodes to the same value, so DecodeCheckpoint equals
// json.Unmarshal on every input, nil versus empty slices included.
//
// These are functions, not MarshalJSON/UnmarshalJSON methods: json.Marshal
// re-compacts and re-validates a method's output, and encoding/json stays
// the oracle FuzzCheckpoint holds the codec to.

// AppendCheckpoint appends json.Marshal(ck) to b.
func AppendCheckpoint(b []byte, ck *Checkpoint) []byte {
	if ck == nil {
		return append(b, "null"...)
	}
	b = obs.AppendString(append(b, `{"schema":`...), ck.Schema)
	b = appendN(b, `,"version":`, ck.Version)
	b = appendN(b, `,"procs":`, ck.NumProcs)
	b = appendOptTrue(b, `,"sharded":`, ck.Sharded)
	b = appendOptTrue(b, `,"collect_log":`, ck.CollectLog)
	b = appendArr(append(b, `,"kernels":`...), ck.Kernels, appendKernelClock)
	b = appendArr(append(b, `,"events":`...), ck.Events, appendEvent)
	b = appendArr(append(b, `,"addr_map":`...), ck.AddrMap, appendPageHome)
	b = appendPtr(append(b, `,"net":`...), ck.Net, appendNet)
	b = appendU(b, `,"vendor_next":`, uint64(ck.VendorNext))
	b = appendOptArr(b, `,"vendor_out":`, ck.VendorOut, appendOutstanding)
	b = appendOptN(b, `,"barrier_arrived":`, ck.BarrierArrived)
	b = appendN(b, `,"running":`, ck.Running)
	b = appendArr(append(b, `,"proc_state":`...), ck.Procs, appendProc)
	b = appendArr(append(b, `,"dir_state":`...), ck.Dirs, appendDir)
	if len(ck.Ports) > 0 {
		// Only a retired-layout checkpoint, which Restore refuses, has one.
		// json.Marshal compacts and escapes it as it does inside ck; bytes
		// that are not JSON, which make json.Marshal(ck) fail, become null.
		enc, err := json.Marshal(ck.Ports)
		if err != nil {
			enc = []byte("null")
		}
		b = append(append(b, `,"port_state":`...), enc...)
	}
	b = appendOptUints(b, `,"msg_counts":`, ck.MsgCounts)
	b = appendOptU(b, `,"commits":`, ck.Commits)
	b = appendOptU(b, `,"violations":`, ck.Violations)
	b = appendOptU(b, `,"instr":`, ck.Instr)
	b = appendOptUints(b, `,"tx_instr_h":`, ck.TxInstrH)
	b = appendOptUints(b, `,"rd_set_h":`, ck.RdSetH)
	b = appendOptUints(b, `,"wr_set_h":`, ck.WrSetH)
	b = appendOptUints(b, `,"dirs_touched_h":`, ck.DirsTouchedH)
	b = appendOptArr(b, `,"commit_log":`, ck.CommitLog, appendRecord)
	return append(b, '}')
}

// DecodeCheckpoint decodes a checkpoint as json.Unmarshal does: canonical
// bytes through the codec, anything else through json.Unmarshal.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	if ck, ok := decodeCanonical(data); ok {
		return ck, nil
	}
	ck := new(Checkpoint)
	if err := json.Unmarshal(data, ck); err != nil {
		return nil, err
	}
	return ck, nil
}

// decodeCanonical decodes data if it is in canonical form, reporting whether
// it was.
func decodeCanonical(data []byte) (*Checkpoint, bool) {
	r := ckReader{b: data}
	ck := new(Checkpoint)
	readCheckpoint(&r, ck)
	return ck, !r.bad && r.i == len(data)
}

func readCheckpoint(r *ckReader, ck *Checkpoint) {
	r.lit(`{"schema":`)
	ck.Schema = r.str()
	ck.Version = r.n(`,"version":`)
	ck.NumProcs = r.n(`,"procs":`)
	ck.Sharded = r.optTrue(`,"sharded":`)
	ck.CollectLog = r.optTrue(`,"collect_log":`)
	r.lit(`,"kernels":`)
	ck.Kernels = readArr(r, readKernelClock)
	r.lit(`,"events":`)
	ck.Events = readArr(r, readEvent)
	r.lit(`,"addr_map":`)
	ck.AddrMap = readArr(r, readPageHome)
	r.lit(`,"net":`)
	ck.Net = readPtr(r, readNet)
	ck.VendorNext = tid.TID(r.u(`,"vendor_next":`))
	ck.VendorOut = readOptArr(r, `,"vendor_out":`, readOutstanding)
	ck.BarrierArrived = r.optN(`,"barrier_arrived":`)
	ck.Running = r.n(`,"running":`)
	r.lit(`,"proc_state":`)
	ck.Procs = readArr(r, readProc)
	r.lit(`,"dir_state":`)
	ck.Dirs = readArr(r, readDir)
	if r.has(`,"port_state":`) {
		r.fail()
	}
	ck.MsgCounts = readOptUints[uint64](r, `,"msg_counts":`)
	ck.Commits = r.optU(`,"commits":`)
	ck.Violations = r.optU(`,"violations":`)
	ck.Instr = r.optU(`,"instr":`)
	ck.TxInstrH = readOptUints[uint64](r, `,"tx_instr_h":`)
	ck.RdSetH = readOptUints[uint64](r, `,"rd_set_h":`)
	ck.WrSetH = readOptUints[uint64](r, `,"wr_set_h":`)
	ck.DirsTouchedH = readOptUints[uint64](r, `,"dirs_touched_h":`)
	ck.CommitLog = readOptArr(r, `,"commit_log":`, readRecord)
	r.lit("}")
}

func appendKernelClock(b []byte, k *KernelClock) []byte {
	b = appendU(b, `{"now":`, uint64(k.Now))
	b = appendU(b, `,"seq":`, k.Seq)
	b = appendU(b, `,"nrun":`, k.NRun)
	return append(b, '}')
}

func readKernelClock(r *ckReader, k *KernelClock) {
	k.Now = sim.Time(r.u(`{"now":`))
	k.Seq = r.u(`,"seq":`)
	k.NRun = r.u(`,"nrun":`)
	r.lit("}")
}

func appendEvent(b []byte, e *EventState) []byte {
	b = appendN(b, `{"kernel":`, e.Kernel)
	b = appendU(b, `,"at":`, uint64(e.At))
	b = appendU(b, `,"seq":`, e.Seq)
	b = obs.AppendString(append(b, `,"handler":`...), e.Handler)
	b = appendN(b, `,"node":`, e.Node)
	b = appendU(b, `,"code":`, uint64(e.Code))
	b = appendOptU(b, `,"a1":`, e.A1)
	b = appendOptU(b, `,"a2":`, e.A2)
	if e.Msg != nil {
		b = appendMsg(append(b, `,"msg":`...), e.Msg)
	}
	return append(b, '}')
}

func readEvent(r *ckReader, e *EventState) {
	e.Kernel = r.n(`{"kernel":`)
	e.At = sim.Time(r.u(`,"at":`))
	e.Seq = r.u(`,"seq":`)
	r.lit(`,"handler":`)
	e.Handler = r.str()
	e.Node = r.n(`,"node":`)
	e.Code = r.u32(`,"code":`)
	e.A1 = r.optU(`,"a1":`)
	e.A2 = r.optU(`,"a2":`)
	if r.has(`,"msg":`) {
		e.Msg = new(MsgState)
		readMsg(r, e.Msg)
	}
	r.lit("}")
}

func appendMsg(b []byte, m *MsgState) []byte {
	b = appendN(b, `{"kind":`, int(m.Kind))
	b = appendN(b, `,"src":`, int(m.Src))
	b = appendN(b, `,"dst":`, int(m.Dst))
	b = appendOptU(b, `,"addr":`, uint64(m.Addr))
	b = appendOptU(b, `,"t":`, uint64(m.T))
	b = appendOptU(b, `,"t2":`, uint64(m.T2))
	b = appendOptU(b, `,"words":`, uint64(m.Words))
	b = appendOptU(b, `,"words2":`, uint64(m.Words2))
	b = appendOptUints(b, `,"data":`, m.Data)
	b = appendOptTrue(b, `,"flag":`, m.Flag)
	return append(b, '}')
}

func readMsg(r *ckReader, m *MsgState) {
	m.Kind = MsgKind(r.n(`{"kind":`))
	m.Src = r.i32(`,"src":`)
	m.Dst = r.i32(`,"dst":`)
	m.Addr = mem.Addr(r.optU(`,"addr":`))
	m.T = tid.TID(r.optU(`,"t":`))
	m.T2 = tid.TID(r.optU(`,"t2":`))
	m.Words = bits.WordMask(r.optU(`,"words":`))
	m.Words2 = bits.WordMask(r.optU(`,"words2":`))
	m.Data = readOptUints[mem.Version](r, `,"data":`)
	m.Flag = r.optTrue(`,"flag":`)
	r.lit("}")
}

func appendPageHome(b []byte, p *mem.PageHome) []byte {
	b = appendU(b, `{"page":`, uint64(p.Page))
	b = appendN(b, `,"node":`, p.Node)
	return append(b, '}')
}

func readPageHome(r *ckReader, p *mem.PageHome) {
	p.Page = mem.Addr(r.u(`{"page":`))
	p.Node = r.n(`,"node":`)
	r.lit("}")
}

func appendNet(b []byte, s *mesh.Snapshot) []byte {
	b = append(b, `{"next_free":`...)
	b = appendLinkClocks(b, &s.NextFree)
	b = appendLinkClocks(append(b, `,"busy":`...), &s.Busy)
	b = appendUints(append(b, `,"bytes_by_class":`...), s.BytesByClass[:])
	b = appendUints(append(b, `,"msgs_by_class":`...), s.MsgsByClass[:])
	b = appendUints(append(b, `,"per_node_bytes":`...), s.PerNodeBytes)
	b = appendU(b, `,"hops_total":`, s.HopsTotal)
	return append(b, '}')
}

func readNet(r *ckReader, s *mesh.Snapshot) {
	r.lit(`{"next_free":`)
	readLinkClocks(r, &s.NextFree)
	r.lit(`,"busy":`)
	readLinkClocks(r, &s.Busy)
	r.lit(`,"bytes_by_class":`)
	readFixed(r, s.BytesByClass[:])
	r.lit(`,"msgs_by_class":`)
	readFixed(r, s.MsgsByClass[:])
	r.lit(`,"per_node_bytes":`)
	s.PerNodeBytes = readUints[uint64](r)
	s.HopsTotal = r.u(`,"hops_total":`)
	r.lit("}")
}

func appendLinkClocks(b []byte, a *[4][]sim.Time) []byte {
	b = append(b, '[')
	for d := range a {
		if d > 0 {
			b = append(b, ',')
		}
		b = appendUints(b, a[d])
	}
	return append(b, ']')
}

func readLinkClocks(r *ckReader, a *[4][]sim.Time) {
	r.lit("[")
	for d := range a {
		if d > 0 {
			r.lit(",")
		}
		a[d] = readUints[sim.Time](r)
	}
	r.lit("]")
}

func appendOutstanding(b []byte, o *tid.Outstanding) []byte {
	b = appendU(b, `{"tid":`, uint64(o.TID))
	b = appendN(b, `,"node":`, o.Node)
	return append(b, '}')
}

func readOutstanding(r *ckReader, o *tid.Outstanding) {
	o.TID = tid.TID(r.u(`{"tid":`))
	o.Node = r.n(`,"node":`)
	r.lit("}")
}

func appendProc(b []byte, p *ProcState) []byte {
	b = appendN(b, `{"prog_phase":`, p.ProgPhase)
	b = appendN(b, `,"tx_idx":`, p.TxIdx)
	b = appendN(b, `,"op_idx":`, p.OpIdx)
	b = appendN(b, `,"phase":`, p.Phase)
	b = appendU(b, `,"epoch":`, p.Epoch)
	b = appendU(b, `,"tx_start":`, uint64(p.TxStart))
	b = appendU(b, `,"miss_start":`, uint64(p.MissStart))
	b = appendU(b, `,"miss_line":`, uint64(p.MissLine))
	b = appendU(b, `,"pend_useful":`, p.PendUseful)
	b = appendU(b, `,"pend_miss":`, p.PendMiss)
	b = appendN(b, `,"attempt":`, p.Attempt)
	b = appendOptArr(b, `,"read_set":`, p.ReadSet, appendSample)
	b = appendOptUints(b, `,"sharing_vec":`, p.SharingVec)
	b = appendOptUints(b, `,"writing_vec":`, p.WritingVec)
	b = appendU(b, `,"tid":`, uint64(p.TID))
	b = appendU(b, `,"last_tid":`, uint64(p.LastTID))
	b = appendOptTrue(b, `,"waiting_tid":`, p.WaitingTID)
	b = appendOptN(b, `,"tid_disposals":`, p.TidDisposals)
	b = appendOptTrue(b, `,"keep_tid":`, p.KeepTID)
	b = appendU(b, `,"commit_start":`, uint64(p.CommitStart))
	b = appendOptArr(b, `,"write_set":`, p.WriteSet, appendWriteDir)
	b = appendU(b, `,"val_tok":`, p.ValTok)
	b = appendOptArr(b, `,"pend_w":`, p.PendW, appendInt)
	b = appendOptArr(b, `,"pend_r":`, p.PendR, appendInt)
	b = appendOptArr(b, `,"fills":`, p.Fills, appendFill)
	b = appendOptN(b, `,"refill_count":`, p.RefillCount)
	b = appendU(b, `,"idle_start":`, uint64(p.IdleStart))
	b = appendProcStats(append(b, `,"stats":`...), &p.Stats)
	b = appendPtr(append(b, `,"cache":`...), p.Cache, appendCache)
	b = appendPtr(append(b, `,"l1":`...), p.L1, appendTagArray)
	return append(b, '}')
}

func readProc(r *ckReader, p *ProcState) {
	p.ProgPhase = r.n(`{"prog_phase":`)
	p.TxIdx = r.n(`,"tx_idx":`)
	p.OpIdx = r.n(`,"op_idx":`)
	p.Phase = r.n(`,"phase":`)
	p.Epoch = r.u(`,"epoch":`)
	p.TxStart = sim.Time(r.u(`,"tx_start":`))
	p.MissStart = sim.Time(r.u(`,"miss_start":`))
	p.MissLine = mem.Addr(r.u(`,"miss_line":`))
	p.PendUseful = r.u(`,"pend_useful":`)
	p.PendMiss = r.u(`,"pend_miss":`)
	p.Attempt = r.n(`,"attempt":`)
	p.ReadSet = readOptArr(r, `,"read_set":`, readSample)
	p.SharingVec = readOptUints[uint64](r, `,"sharing_vec":`)
	p.WritingVec = readOptUints[uint64](r, `,"writing_vec":`)
	p.TID = tid.TID(r.u(`,"tid":`))
	p.LastTID = tid.TID(r.u(`,"last_tid":`))
	p.WaitingTID = r.optTrue(`,"waiting_tid":`)
	p.TidDisposals = r.optN(`,"tid_disposals":`)
	p.KeepTID = r.optTrue(`,"keep_tid":`)
	p.CommitStart = sim.Time(r.u(`,"commit_start":`))
	p.WriteSet = readOptArr(r, `,"write_set":`, readWriteDir)
	p.ValTok = r.u(`,"val_tok":`)
	p.PendW = readOptArr(r, `,"pend_w":`, readInt)
	p.PendR = readOptArr(r, `,"pend_r":`, readInt)
	p.Fills = readOptArr(r, `,"fills":`, readFill)
	p.RefillCount = r.optN(`,"refill_count":`)
	p.IdleStart = sim.Time(r.u(`,"idle_start":`))
	r.lit(`,"stats":`)
	readProcStats(r, &p.Stats)
	r.lit(`,"cache":`)
	p.Cache = readPtr(r, readCache)
	r.lit(`,"l1":`)
	p.L1 = readPtr(r, readTagArray)
	r.lit("}")
}

func appendSample(b []byte, s *mem.ReadSample) []byte {
	b = appendU(b, `{"Addr":`, uint64(s.Addr))
	b = appendU(b, `,"Version":`, uint64(s.Version))
	return append(b, '}')
}

func readSample(r *ckReader, s *mem.ReadSample) {
	s.Addr = mem.Addr(r.u(`{"Addr":`))
	s.Version = mem.Version(r.u(`,"Version":`))
	r.lit("}")
}

func appendWriteDir(b []byte, w *WriteDirState) []byte {
	b = appendN(b, `{"dir":`, w.Dir)
	b = appendArr(append(b, `,"lines":`...), w.Lines, appendWriteLine)
	return append(b, '}')
}

func readWriteDir(r *ckReader, w *WriteDirState) {
	w.Dir = r.n(`{"dir":`)
	r.lit(`,"lines":`)
	w.Lines = readArr(r, readWriteLine)
	r.lit("}")
}

func appendWriteLine(b []byte, w *WriteLineState) []byte {
	b = appendU(b, `{"base":`, uint64(w.Base))
	b = appendU(b, `,"words":`, uint64(w.Words))
	return append(b, '}')
}

func readWriteLine(r *ckReader, w *WriteLineState) {
	w.Base = mem.Addr(r.u(`{"base":`))
	w.Words = bits.WordMask(r.u(`,"words":`))
	r.lit("}")
}

func appendFill(b []byte, f *FillState) []byte {
	b = appendU(b, `{"base":`, uint64(f.Base))
	b = appendOptN(b, `,"out":`, f.Out)
	b = appendOptN(b, `,"kills":`, f.Kills)
	b = appendOptTrue(b, `,"refill":`, f.Refill)
	return append(b, '}')
}

func readFill(r *ckReader, f *FillState) {
	f.Base = mem.Addr(r.u(`{"base":`))
	f.Out = r.optN(`,"out":`)
	f.Kills = r.optN(`,"kills":`)
	f.Refill = r.optTrue(`,"refill":`)
	r.lit("}")
}

func appendProcStats(b []byte, s *ProcStats) []byte {
	b = appendUints(append(b, `{"Breakdown":`...), s.Breakdown[:])
	b = appendU(b, `,"Commits":`, s.Commits)
	b = appendU(b, `,"Violations":`, s.Violations)
	b = appendU(b, `,"CommittedInstr":`, s.CommittedInstr)
	b = appendU(b, `,"OverflowAborts":`, s.OverflowAborts)
	b = appendU(b, `,"MaxRetries":`, s.MaxRetries)
	return append(b, '}')
}

func readProcStats(r *ckReader, s *ProcStats) {
	r.lit(`{"Breakdown":`)
	readFixed(r, s.Breakdown[:])
	s.Commits = r.u(`,"Commits":`)
	s.Violations = r.u(`,"Violations":`)
	s.CommittedInstr = r.u(`,"CommittedInstr":`)
	s.OverflowAborts = r.u(`,"OverflowAborts":`)
	s.MaxRetries = r.u(`,"MaxRetries":`)
	r.lit("}")
}

func appendCache(b []byte, c *cache.CacheState) []byte {
	b = appendArr(append(b, `{"lines":`...), c.Lines, appendLine)
	b = appendOptArr(b, `,"overflow":`, c.Overflow, appendLine)
	b = appendU(b, `,"clock":`, c.Clock)
	b = appendCacheStats(append(b, `,"stats":`...), &c.Stats)
	return append(b, '}')
}

func readCache(r *ckReader, c *cache.CacheState) {
	r.lit(`{"lines":`)
	c.Lines = readArr(r, readLine)
	c.Overflow = readOptArr(r, `,"overflow":`, readLine)
	c.Clock = r.u(`,"clock":`)
	r.lit(`,"stats":`)
	readCacheStats(r, &c.Stats)
	r.lit("}")
}

func appendLine(b []byte, l *cache.LineState) []byte {
	b = appendN(b, `{"set":`, l.Set)
	b = appendN(b, `,"way":`, l.Way)
	b = appendU(b, `,"base":`, uint64(l.Base))
	b = appendU(b, `,"vw":`, uint64(l.VW))
	b = appendOptTrue(b, `,"dirty":`, l.Dirty)
	b = appendOptU(b, `,"ow":`, uint64(l.OW))
	b = appendOptU(b, `,"sr":`, uint64(l.SR))
	b = appendOptU(b, `,"sm":`, uint64(l.SM))
	b = appendU(b, `,"lru":`, l.LRU)
	b = appendOptTrue(b, `,"tracked":`, l.Tracked)
	b = appendUints(append(b, `,"data":`...), l.Data)
	return append(b, '}')
}

func readLine(r *ckReader, l *cache.LineState) {
	l.Set = r.n(`{"set":`)
	l.Way = r.n(`,"way":`)
	l.Base = mem.Addr(r.u(`,"base":`))
	l.VW = bits.WordMask(r.u(`,"vw":`))
	l.Dirty = r.optTrue(`,"dirty":`)
	l.OW = bits.WordMask(r.optU(`,"ow":`))
	l.SR = bits.WordMask(r.optU(`,"sr":`))
	l.SM = bits.WordMask(r.optU(`,"sm":`))
	l.LRU = r.u(`,"lru":`)
	l.Tracked = r.optTrue(`,"tracked":`)
	r.lit(`,"data":`)
	l.Data = readUints[mem.Version](r)
	r.lit("}")
}

func appendCacheStats(b []byte, s *cache.Stats) []byte {
	b = appendU(b, `{"Hits":`, s.Hits)
	b = appendU(b, `,"Misses":`, s.Misses)
	b = appendU(b, `,"Evictions":`, s.Evictions)
	b = appendU(b, `,"DirtyEvicts":`, s.DirtyEvicts)
	b = appendU(b, `,"Spills":`, s.Spills)
	b = appendN(b, `,"MaxOverflow":`, s.MaxOverflow)
	b = appendU(b, `,"Invalidations":`, s.Invalidations)
	return append(b, '}')
}

func readCacheStats(r *ckReader, s *cache.Stats) {
	s.Hits = r.u(`{"Hits":`)
	s.Misses = r.u(`,"Misses":`)
	s.Evictions = r.u(`,"Evictions":`)
	s.DirtyEvicts = r.u(`,"DirtyEvicts":`)
	s.Spills = r.u(`,"Spills":`)
	s.MaxOverflow = r.n(`,"MaxOverflow":`)
	s.Invalidations = r.u(`,"Invalidations":`)
	r.lit("}")
}

func appendTagArray(b []byte, t *cache.TagArrayState) []byte {
	b = appendUints(append(b, `{"tags":`...), t.Tags)
	b = appendBools(append(b, `,"valid":`...), t.Valid)
	b = appendUints(append(b, `,"lru":`...), t.LRU)
	b = appendU(b, `,"clock":`, t.Clock)
	return append(b, '}')
}

func readTagArray(r *ckReader, t *cache.TagArrayState) {
	r.lit(`{"tags":`)
	t.Tags = readUints[mem.Addr](r)
	r.lit(`,"valid":`)
	t.Valid = readBools(r)
	r.lit(`,"lru":`)
	t.LRU = readUints[uint64](r)
	t.Clock = r.u(`,"clock":`)
	r.lit("}")
}

func appendDir(b []byte, d *DirState) []byte {
	b = appendU(b, `{"nstid":`, uint64(d.NSTID))
	b = appendOptUints(b, `,"done":`, d.Done)
	b = appendOptArr(b, `,"entries":`, d.Entries, appendDirEntry)
	b = appendOptArr(b, `,"memory":`, d.Memory, appendLineImage)
	b = appendOptUints(b, `,"marked_lines":`, d.MarkedLines)
	b = appendN(b, `,"mark_owner":`, d.MarkOwner)
	b = appendOptTrue(b, `,"commit_busy":`, d.CommitBusy)
	b = appendOptN(b, `,"commit_acks":`, d.CommitAcks)
	b = appendOptN(b, `,"commit_flushes":`, d.CommitFlushes)
	b = appendOptU(b, `,"pending_commit_tid":`, uint64(d.PendingCommitTID))
	b = appendOptArr(b, `,"probes":`, d.Probes, appendProbe)
	b = appendOptU(b, `,"probe_min":`, uint64(d.ProbeMin))
	b = appendOptArr(b, `,"stalls":`, d.Stalls, appendStall)
	b = appendU(b, `,"next_free":`, uint64(d.NextFree))
	b = appendOptArr(b, `,"dir_cache":`, d.DirCache, appendDirCacheStamp)
	b = appendOptU(b, `,"dir_cache_clock":`, d.DirCacheClock)
	b = appendOptN(b, `,"remote_entries":`, d.RemoteEntries)
	b = appendDirStats(append(b, `,"stats":`...), &d.Stats)
	b = appendOptUints(b, `,"occ_hist":`, d.OccHist)
	b = appendOptUints(b, `,"ws_hist":`, d.WsHist)
	b = appendOptU(b, `,"cur_busy":`, d.CurBusy)
	return append(b, '}')
}

func readDir(r *ckReader, d *DirState) {
	d.NSTID = tid.TID(r.u(`{"nstid":`))
	d.Done = readOptUints[uint64](r, `,"done":`)
	d.Entries = readOptArr(r, `,"entries":`, readDirEntry)
	d.Memory = readOptArr(r, `,"memory":`, readLineImage)
	d.MarkedLines = readOptUints[mem.Addr](r, `,"marked_lines":`)
	d.MarkOwner = r.n(`,"mark_owner":`)
	d.CommitBusy = r.optTrue(`,"commit_busy":`)
	d.CommitAcks = r.optN(`,"commit_acks":`)
	d.CommitFlushes = r.optN(`,"commit_flushes":`)
	d.PendingCommitTID = tid.TID(r.optU(`,"pending_commit_tid":`))
	d.Probes = readOptArr(r, `,"probes":`, readProbe)
	d.ProbeMin = tid.TID(r.optU(`,"probe_min":`))
	d.Stalls = readOptArr(r, `,"stalls":`, readStall)
	d.NextFree = sim.Time(r.u(`,"next_free":`))
	d.DirCache = readOptArr(r, `,"dir_cache":`, readDirCacheStamp)
	d.DirCacheClock = r.optU(`,"dir_cache_clock":`)
	d.RemoteEntries = r.optN(`,"remote_entries":`)
	r.lit(`,"stats":`)
	readDirStats(r, &d.Stats)
	d.OccHist = readOptUints[uint64](r, `,"occ_hist":`)
	d.WsHist = readOptUints[uint64](r, `,"ws_hist":`)
	d.CurBusy = r.optU(`,"cur_busy":`)
	r.lit("}")
}

func appendDirEntry(b []byte, e *DirEntryState) []byte {
	b = appendU(b, `{"base":`, uint64(e.Base))
	b = appendOptUints(b, `,"sharers":`, e.Sharers)
	b = appendN(b, `,"owner":`, e.Owner)
	b = appendOptU(b, `,"owner_tid":`, uint64(e.OwnerTID))
	b = appendOptU(b, `,"owned_words":`, uint64(e.OwnedWords))
	b = appendOptTrue(b, `,"marked":`, e.Marked)
	b = appendOptU(b, `,"mark_words":`, uint64(e.MarkWords))
	b = appendOptUints(b, `,"mark_data":`, e.MarkData)
	b = appendOptArr(b, `,"pending_from":`, e.PendingFrom, appendInt)
	return append(b, '}')
}

func readDirEntry(r *ckReader, e *DirEntryState) {
	e.Base = mem.Addr(r.u(`{"base":`))
	e.Sharers = readOptUints[uint64](r, `,"sharers":`)
	e.Owner = r.n(`,"owner":`)
	e.OwnerTID = tid.TID(r.optU(`,"owner_tid":`))
	e.OwnedWords = bits.WordMask(r.optU(`,"owned_words":`))
	e.Marked = r.optTrue(`,"marked":`)
	e.MarkWords = bits.WordMask(r.optU(`,"mark_words":`))
	e.MarkData = readOptUints[mem.Version](r, `,"mark_data":`)
	e.PendingFrom = readOptArr(r, `,"pending_from":`, readInt)
	r.lit("}")
}

func appendLineImage(b []byte, l *mem.LineImage) []byte {
	b = appendU(b, `{"base":`, uint64(l.Base))
	b = appendUints(append(b, `,"words":`...), l.Words)
	return append(b, '}')
}

func readLineImage(r *ckReader, l *mem.LineImage) {
	l.Base = mem.Addr(r.u(`{"base":`))
	r.lit(`,"words":`)
	l.Words = readUints[mem.Version](r)
	r.lit("}")
}

func appendProbe(b []byte, p *ProbeState) []byte {
	b = appendU(b, `{"t":`, uint64(p.T))
	b = appendOptTrue(b, `,"write":`, p.Write)
	b = appendN(b, `,"from":`, p.From)
	return append(b, '}')
}

func readProbe(r *ckReader, p *ProbeState) {
	p.T = tid.TID(r.u(`{"t":`))
	p.Write = r.optTrue(`,"write":`)
	p.From = r.n(`,"from":`)
	r.lit("}")
}

func appendStall(b []byte, s *StallState) []byte {
	b = appendU(b, `{"base":`, uint64(s.Base))
	b = appendArr(append(b, `,"loads":`...), s.Loads, appendPendingLoad)
	return append(b, '}')
}

func readStall(r *ckReader, s *StallState) {
	s.Base = mem.Addr(r.u(`{"base":`))
	r.lit(`,"loads":`)
	s.Loads = readArr(r, readPendingLoad)
	r.lit("}")
}

func appendPendingLoad(b []byte, l *PendingLoadState) []byte {
	b = appendU(b, `{"addr":`, uint64(l.Addr))
	b = appendN(b, `,"from":`, l.From)
	b = appendOptU(b, `,"req_tid":`, uint64(l.ReqTID))
	return append(b, '}')
}

func readPendingLoad(r *ckReader, l *PendingLoadState) {
	l.Addr = mem.Addr(r.u(`{"addr":`))
	l.From = r.n(`,"from":`)
	l.ReqTID = tid.TID(r.optU(`,"req_tid":`))
	r.lit("}")
}

func appendDirCacheStamp(b []byte, s *DirCacheStamp) []byte {
	b = appendU(b, `{"addr":`, uint64(s.Addr))
	b = appendU(b, `,"stamp":`, s.Stamp)
	return append(b, '}')
}

func readDirCacheStamp(r *ckReader, s *DirCacheStamp) {
	s.Addr = mem.Addr(r.u(`{"addr":`))
	s.Stamp = r.u(`,"stamp":`)
	r.lit("}")
}

func appendDirStats(b []byte, s *DirStats) []byte {
	b = appendU(b, `{"DirCacheMisses":`, s.DirCacheMisses)
	b = appendU(b, `,"CommitsServiced":`, s.CommitsServiced)
	b = appendU(b, `,"SkipsProcessed":`, s.SkipsProcessed)
	b = appendU(b, `,"AbortsProcessed":`, s.AbortsProcessed)
	b = appendU(b, `,"LoadsServiced":`, s.LoadsServiced)
	b = appendU(b, `,"LoadsStalled":`, s.LoadsStalled)
	b = appendU(b, `,"Forwards":`, s.Forwards)
	b = appendU(b, `,"WriteBacks":`, s.WriteBacks)
	b = appendU(b, `,"DroppedWBs":`, s.DroppedWBs)
	b = appendU(b, `,"Invalidations":`, s.Invalidations)
	b = appendU(b, `,"BusyCycles":`, s.BusyCycles)
	return append(b, '}')
}

func readDirStats(r *ckReader, s *DirStats) {
	s.DirCacheMisses = r.u(`{"DirCacheMisses":`)
	s.CommitsServiced = r.u(`,"CommitsServiced":`)
	s.SkipsProcessed = r.u(`,"SkipsProcessed":`)
	s.AbortsProcessed = r.u(`,"AbortsProcessed":`)
	s.LoadsServiced = r.u(`,"LoadsServiced":`)
	s.LoadsStalled = r.u(`,"LoadsStalled":`)
	s.Forwards = r.u(`,"Forwards":`)
	s.WriteBacks = r.u(`,"WriteBacks":`)
	s.DroppedWBs = r.u(`,"DroppedWBs":`)
	s.Invalidations = r.u(`,"Invalidations":`)
	s.BusyCycles = r.u(`,"BusyCycles":`)
	r.lit("}")
}

func appendRecord(b []byte, c *CommitRecord) []byte {
	b = appendU(b, `{"TID":`, uint64(c.TID))
	b = appendN(b, `,"Proc":`, c.Proc)
	b = c.Reads.AppendJSON(append(b, `,"Reads":`...))
	b = c.Writes.AppendJSON(append(b, `,"Writes":`...))
	return append(b, '}')
}

func readRecord(r *ckReader, c *CommitRecord) {
	c.TID = tid.TID(r.u(`{"TID":`))
	c.Proc = r.n(`,"Proc":`)
	r.lit(`,"Reads":`)
	c.Reads = r.words()
	r.lit(`,"Writes":`)
	c.Writes = r.words()
	r.lit("}")
}

// words reads a record side as verify.Words.AppendJSON writes it. An empty
// side is nil and a repeated address is not canonical, as
// Words.UnmarshalJSON folds it.
func (r *ckReader) words() verify.Words {
	r.lit("{")
	if r.has("}") {
		return nil
	}
	var w verify.Words
	r.seen.Reset()
	for !r.bad {
		r.lit(`"`)
		a := mem.Addr(r.u64())
		r.lit(`":`)
		w = append(w, mem.ReadSample{Addr: a, Version: mem.Version(r.u64())})
		if _, dup := r.seen.Insert(a, 0); dup {
			r.fail()
		}
		if !r.has(",") {
			r.lit("}")
			break
		}
	}
	return w
}

// Writers. Each key argument carries its punctuation: the '{' or ',' before
// the quoted name and the ':' after it.

func appendU(b []byte, key string, v uint64) []byte {
	return strconv.AppendUint(append(b, key...), v, 10)
}

func appendOptU(b []byte, key string, v uint64) []byte {
	if v == 0 {
		return b
	}
	return appendU(b, key, v)
}

func appendN(b []byte, key string, v int) []byte {
	return strconv.AppendInt(append(b, key...), int64(v), 10)
}

func appendOptN(b []byte, key string, v int) []byte {
	if v == 0 {
		return b
	}
	return appendN(b, key, v)
}

func appendOptTrue(b []byte, key string, v bool) []byte {
	if !v {
		return b
	}
	return append(append(b, key...), "true"...)
}

func appendInt(b []byte, v *int) []byte { return strconv.AppendInt(b, int64(*v), 10) }

// appendArr appends s as a JSON array, null when nil, each element by f.
func appendArr[T any](b []byte, s []T, f func([]byte, *T) []byte) []byte {
	if s == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = f(b, &s[i])
	}
	return append(b, ']')
}

func appendOptArr[T any](b []byte, key string, s []T, f func([]byte, *T) []byte) []byte {
	if len(s) == 0 {
		return b
	}
	return appendArr(append(b, key...), s, f)
}

func appendPtr[T any](b []byte, p *T, f func([]byte, *T) []byte) []byte {
	if p == nil {
		return append(b, "null"...)
	}
	return f(b, p)
}

// appendUints is appendArr for the unsigned types, the bulk of a checkpoint.
func appendUints[T ~uint64](b []byte, s []T) []byte {
	if s == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, uint64(v), 10)
	}
	return append(b, ']')
}

func appendOptUints[T ~uint64](b []byte, key string, s []T) []byte {
	if len(s) == 0 {
		return b
	}
	return appendUints(append(b, key...), s)
}

func appendBools(b []byte, s []bool) []byte {
	if s == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendBool(b, v)
	}
	return append(b, ']')
}

// ckReader scans canonical checkpoint bytes. The first deviation marks the
// input bad and moves the scan to its end, so every later read fails fast
// and every loop ends.
type ckReader struct {
	b    []byte
	i    int
	bad  bool
	seen mem.AddrIndex // the addresses of the record side being read
}

func (r *ckReader) fail() {
	r.bad = true
	r.i = len(r.b)
}

// has consumes s if the input continues with it.
func (r *ckReader) has(s string) bool {
	if len(r.b)-r.i >= len(s) && string(r.b[r.i:r.i+len(s)]) == s {
		r.i += len(s)
		return true
	}
	return false
}

// lit consumes s or fails.
func (r *ckReader) lit(s string) {
	if !r.has(s) {
		r.fail()
	}
}

// u64 reads an unsigned decimal as strconv.AppendUint writes it. A leading
// zero ends the number, so the digit after it fails the next literal.
func (r *ckReader) u64() uint64 {
	b, i := r.b, r.i
	if i >= len(b) || b[i]-'0' > 9 {
		r.fail()
		return 0
	}
	if b[i] == '0' {
		r.i++
		return 0
	}
	var v uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		d := uint64(b[i] - '0')
		if v > (math.MaxUint64-d)/10 {
			r.fail()
			return 0
		}
		v = v*10 + d
	}
	r.i = i
	return v
}

// int reads a signed decimal as strconv.AppendInt writes it, in int's range.
func (r *ckReader) int() int {
	neg := r.has("-")
	u := r.u64()
	switch {
	case neg && u != 0 && u <= 1<<(strconv.IntSize-1):
		return -int(u-1) - 1
	case !neg && u <= math.MaxInt:
		return int(u)
	}
	r.fail()
	return 0
}

func (r *ckReader) u(key string) uint64 {
	r.lit(key)
	return r.u64()
}

// optU reads an omitempty unsigned field: absent is zero, present is not.
func (r *ckReader) optU(key string) uint64 {
	if !r.has(key) {
		return 0
	}
	v := r.u64()
	if v == 0 {
		r.fail()
	}
	return v
}

func (r *ckReader) n(key string) int {
	r.lit(key)
	return r.int()
}

func (r *ckReader) optN(key string) int {
	if !r.has(key) {
		return 0
	}
	v := r.int()
	if v == 0 {
		r.fail()
	}
	return v
}

func (r *ckReader) i32(key string) int32 {
	v := r.n(key)
	if v < math.MinInt32 || v > math.MaxInt32 {
		r.fail()
	}
	return int32(v)
}

func (r *ckReader) u32(key string) uint32 {
	v := r.u(key)
	if v > math.MaxUint32 {
		r.fail()
	}
	return uint32(v)
}

// optTrue reads an omitempty bool, which json.Marshal writes only when true.
func (r *ckReader) optTrue(key string) bool {
	if !r.has(key) {
		return false
	}
	r.lit("true")
	return true
}

// str reads a string that needs no escape, as obs.AppendString copies it.
func (r *ckReader) str() string {
	r.lit(`"`)
	for start := r.i; r.i < len(r.b); r.i++ {
		switch c := r.b[r.i]; {
		case c == '"':
			r.i++
			return string(r.b[start : r.i-1])
		case c < 0x20, c >= 0x80, c == '\\', c == '<', c == '>', c == '&':
			r.fail()
		}
	}
	r.fail()
	return ""
}

func readInt(r *ckReader, v *int) { *v = r.int() }

// readArr reads a JSON array as json.Unmarshal does into a slice: null is
// nil and [] is empty but not nil. f reads each element.
func readArr[T any](r *ckReader, f func(*ckReader, *T)) []T {
	if r.has("null") {
		return nil
	}
	r.lit("[")
	s := []T{}
	if r.has("]") {
		return s
	}
	for !r.bad {
		var zero T
		s = append(s, zero)
		f(r, &s[len(s)-1])
		if !r.has(",") {
			r.lit("]")
			break
		}
	}
	return s
}

// readOptArr reads an omitempty slice field: absent is nil, present is not
// empty.
func readOptArr[T any](r *ckReader, key string, f func(*ckReader, *T)) []T {
	if !r.has(key) {
		return nil
	}
	s := readArr(r, f)
	if len(s) == 0 {
		r.fail()
	}
	return s
}

func readPtr[T any](r *ckReader, f func(*ckReader, *T)) *T {
	if r.has("null") {
		return nil
	}
	p := new(T)
	f(r, p)
	return p
}

// flatLen counts the elements of a non-empty array of scalars whose first
// element is next, so the slice is allocated once.
func (r *ckReader) flatLen() int {
	rest := r.b[r.i:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	return bytes.Count(rest, []byte{','}) + 1
}

// readUints is readArr for the unsigned types.
func readUints[T ~uint64](r *ckReader) []T {
	if r.has("null") {
		return nil
	}
	r.lit("[")
	if r.has("]") {
		return []T{}
	}
	s := make([]T, 0, r.flatLen())
	for !r.bad {
		s = append(s, T(r.u64()))
		if !r.has(",") {
			r.lit("]")
			break
		}
	}
	return s
}

func readOptUints[T ~uint64](r *ckReader, key string) []T {
	if !r.has(key) {
		return nil
	}
	s := readUints[T](r)
	if len(s) == 0 {
		r.fail()
	}
	return s
}

// readFixed reads a JSON array of exactly len(dst) unsigned integers, as
// json.Marshal writes a Go array.
func readFixed[T ~uint64](r *ckReader, dst []T) {
	r.lit("[")
	for i := range dst {
		if i > 0 {
			r.lit(",")
		}
		dst[i] = T(r.u64())
	}
	r.lit("]")
}

func readBools(r *ckReader) []bool {
	if r.has("null") {
		return nil
	}
	r.lit("[")
	if r.has("]") {
		return []bool{}
	}
	s := make([]bool, 0, r.flatLen())
	for !r.bad {
		switch {
		case r.has("true"):
			s = append(s, true)
		case r.has("false"):
			s = append(s, false)
		default:
			r.fail()
		}
		if !r.has(",") {
			r.lit("]")
			break
		}
	}
	return s
}
