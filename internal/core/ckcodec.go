package core

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"

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
// ASCII strings, so each type gets one walk that names its keys in field
// order, and that one walk serves both directions: a ckCodec either appends
// the canonical bytes or reads them. The field helpers (u, optU, n, optN,
// optTrue, str, arr, optArr, ptr, nums, optNums, fixed) carry the
// direction and the omitempty rule, so each key, its position and when it
// is absent are written down once, and the encoder and the decoder cannot
// drift apart. A key carries the punctuation before it, so the first field
// of every type is one json.Marshal always writes.
//
// The encoder writes exactly what json.Marshal writes: keys in field order,
// an omitempty field absent iff it is zero, null for a nil slice or pointer.
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
// Three spots are not symmetric. Strings are written by obs.AppendString,
// which hands anything json.Marshal would escape to json.Marshal, and read
// only when they need no escape. Record sides are written by verify.Words'
// AppendJSON and read by ckReader.words. port_state is written through
// json.Marshal and refused on read.
//
// The walks are methods so that arr and ptr can take them as method values:
// a method value binds the codec without moving it to the heap, where
// passing it to a func value would cost AppendCheckpoint an allocation.
//
// These are functions, not MarshalJSON/UnmarshalJSON methods: json.Marshal
// re-compacts and re-validates a method's output, and encoding/json stays
// the oracle FuzzCheckpoint holds the codec to.

// AppendCheckpoint appends json.Marshal(ck) to b.
func AppendCheckpoint(b []byte, ck *Checkpoint) []byte {
	if ck == nil {
		return append(b, "null"...)
	}
	c := ckCodec{b: b}
	c.walkCheckpoint(ck)
	return c.b
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
	c := ckCodec{dec: true, r: ckReader{b: data}}
	ck := new(Checkpoint)
	c.walkCheckpoint(ck)
	return ck, !c.r.bad && c.r.i == len(data)
}

// ckCodec walks a checkpoint in one direction: it appends the canonical
// bytes to b, or, with dec set, reads them through r into zero values.
type ckCodec struct {
	dec bool
	b   []byte
	r   ckReader
}

// Each key argument carries its punctuation: the '{' or ',' before the
// quoted name and the ':' after it.

func (c *ckCodec) walkCheckpoint(ck *Checkpoint) {
	str(c, `{"schema":`, &ck.Schema)
	n(c, `,"version":`, &ck.Version)
	n(c, `,"procs":`, &ck.NumProcs)
	optTrue(c, `,"sharded":`, &ck.Sharded)
	optTrue(c, `,"collect_log":`, &ck.CollectLog)
	arr(c, `,"kernels":`, &ck.Kernels, c.walkKernelClock)
	arr(c, `,"events":`, &ck.Events, c.walkEvent)
	arr(c, `,"addr_map":`, &ck.AddrMap, c.walkPageHome)
	ptr(c, `,"net":`, &ck.Net, c.walkNet)
	u(c, `,"vendor_next":`, &ck.VendorNext)
	optArr(c, `,"vendor_out":`, &ck.VendorOut, c.walkOutstanding)
	optN(c, `,"barrier_arrived":`, &ck.BarrierArrived)
	n(c, `,"running":`, &ck.Running)
	arr(c, `,"proc_state":`, &ck.Procs, c.walkProc)
	arr(c, `,"dir_state":`, &ck.Dirs, c.walkDir)
	ports(c, `,"port_state":`, &ck.Ports)
	optNums(c, `,"msg_counts":`, &ck.MsgCounts)
	optU(c, `,"commits":`, &ck.Commits)
	optU(c, `,"violations":`, &ck.Violations)
	optU(c, `,"instr":`, &ck.Instr)
	optNums(c, `,"tx_instr_h":`, &ck.TxInstrH)
	optNums(c, `,"rd_set_h":`, &ck.RdSetH)
	optNums(c, `,"wr_set_h":`, &ck.WrSetH)
	optNums(c, `,"dirs_touched_h":`, &ck.DirsTouchedH)
	optArr(c, `,"commit_log":`, &ck.CommitLog, c.walkRecord)
	c.lit("}")
}

func (c *ckCodec) walkKernelClock(k *KernelClock) {
	u(c, `{"now":`, &k.Now)
	u(c, `,"seq":`, &k.Seq)
	u(c, `,"nrun":`, &k.NRun)
	c.lit("}")
}

func (c *ckCodec) walkEvent(e *EventState) {
	n(c, `{"kernel":`, &e.Kernel)
	u(c, `,"at":`, &e.At)
	u(c, `,"seq":`, &e.Seq)
	str(c, `,"handler":`, &e.Handler)
	n(c, `,"node":`, &e.Node)
	u(c, `,"code":`, &e.Code)
	optU(c, `,"a1":`, &e.A1)
	optU(c, `,"a2":`, &e.A2)
	if c.opt(`,"msg":`, e.Msg != nil) {
		if c.dec {
			e.Msg = new(MsgState)
		}
		c.walkMsg(e.Msg)
	}
	c.lit("}")
}

func (c *ckCodec) walkMsg(m *MsgState) {
	n(c, `{"kind":`, &m.Kind)
	n(c, `,"src":`, &m.Src)
	n(c, `,"dst":`, &m.Dst)
	optU(c, `,"addr":`, &m.Addr)
	optU(c, `,"t":`, &m.T)
	optU(c, `,"t2":`, &m.T2)
	optU(c, `,"words":`, &m.Words)
	optU(c, `,"words2":`, &m.Words2)
	optNums(c, `,"data":`, &m.Data)
	optTrue(c, `,"flag":`, &m.Flag)
	c.lit("}")
}

func (c *ckCodec) walkPageHome(p *mem.PageHome) {
	u(c, `{"page":`, &p.Page)
	n(c, `,"node":`, &p.Node)
	c.lit("}")
}

func (c *ckCodec) walkNet(s *mesh.Snapshot) {
	linkClocks(c, `{"next_free":`, &s.NextFree)
	linkClocks(c, `,"busy":`, &s.Busy)
	fixed(c, `,"bytes_by_class":`, s.BytesByClass[:])
	fixed(c, `,"msgs_by_class":`, s.MsgsByClass[:])
	nums(c, `,"per_node_bytes":`, &s.PerNodeBytes)
	u(c, `,"hops_total":`, &s.HopsTotal)
	c.lit("}")
}

func (c *ckCodec) walkOutstanding(o *tid.Outstanding) {
	u(c, `{"tid":`, &o.TID)
	n(c, `,"node":`, &o.Node)
	c.lit("}")
}

func (c *ckCodec) walkProc(p *ProcState) {
	n(c, `{"prog_phase":`, &p.ProgPhase)
	n(c, `,"tx_idx":`, &p.TxIdx)
	n(c, `,"op_idx":`, &p.OpIdx)
	n(c, `,"phase":`, &p.Phase)
	u(c, `,"epoch":`, &p.Epoch)
	u(c, `,"tx_start":`, &p.TxStart)
	u(c, `,"miss_start":`, &p.MissStart)
	u(c, `,"miss_line":`, &p.MissLine)
	u(c, `,"pend_useful":`, &p.PendUseful)
	u(c, `,"pend_miss":`, &p.PendMiss)
	n(c, `,"attempt":`, &p.Attempt)
	optArr(c, `,"read_set":`, &p.ReadSet, c.walkSample)
	optNums(c, `,"sharing_vec":`, &p.SharingVec)
	optNums(c, `,"writing_vec":`, &p.WritingVec)
	u(c, `,"tid":`, &p.TID)
	u(c, `,"last_tid":`, &p.LastTID)
	optTrue(c, `,"waiting_tid":`, &p.WaitingTID)
	optN(c, `,"tid_disposals":`, &p.TidDisposals)
	optTrue(c, `,"keep_tid":`, &p.KeepTID)
	u(c, `,"commit_start":`, &p.CommitStart)
	optArr(c, `,"write_set":`, &p.WriteSet, c.walkWriteDir)
	u(c, `,"val_tok":`, &p.ValTok)
	optNums(c, `,"pend_w":`, &p.PendW)
	optNums(c, `,"pend_r":`, &p.PendR)
	optArr(c, `,"fills":`, &p.Fills, c.walkFill)
	optN(c, `,"refill_count":`, &p.RefillCount)
	u(c, `,"idle_start":`, &p.IdleStart)
	c.walkProcStats(`,"stats":`, &p.Stats)
	ptr(c, `,"cache":`, &p.Cache, c.walkCache)
	ptr(c, `,"l1":`, &p.L1, c.walkTagArray)
	c.lit("}")
}

func (c *ckCodec) walkSample(s *mem.ReadSample) {
	u(c, `{"Addr":`, &s.Addr)
	u(c, `,"Version":`, &s.Version)
	c.lit("}")
}

func (c *ckCodec) walkWriteDir(w *WriteDirState) {
	n(c, `{"dir":`, &w.Dir)
	arr(c, `,"lines":`, &w.Lines, c.walkWriteLine)
	c.lit("}")
}

func (c *ckCodec) walkWriteLine(w *WriteLineState) {
	u(c, `{"base":`, &w.Base)
	u(c, `,"words":`, &w.Words)
	c.lit("}")
}

func (c *ckCodec) walkFill(f *FillState) {
	u(c, `{"base":`, &f.Base)
	optN(c, `,"out":`, &f.Out)
	optN(c, `,"kills":`, &f.Kills)
	optTrue(c, `,"refill":`, &f.Refill)
	c.lit("}")
}

func (c *ckCodec) walkProcStats(key string, s *ProcStats) {
	c.lit(key)
	fixed(c, `{"Breakdown":`, s.Breakdown[:])
	u(c, `,"Commits":`, &s.Commits)
	u(c, `,"Violations":`, &s.Violations)
	u(c, `,"CommittedInstr":`, &s.CommittedInstr)
	u(c, `,"OverflowAborts":`, &s.OverflowAborts)
	u(c, `,"MaxRetries":`, &s.MaxRetries)
	c.lit("}")
}

func (c *ckCodec) walkCache(s *cache.CacheState) {
	u(c, `{"clock":`, &s.Clock)
	c.walkCacheStats(`,"stats":`, &s.Stats)
	optNums(c, `,"way":`, &s.Way)
	optNums(c, `,"base":`, &s.Base)
	optNums(c, `,"vw":`, &s.VW)
	optNums(c, `,"lru":`, &s.LRU)
	optNums(c, `,"data":`, &s.Data)
	optNums(c, `,"flagged":`, &s.Flagged)
	optNums(c, `,"flags":`, &s.Flags)
	optNums(c, `,"ow":`, &s.OW)
	optNums(c, `,"sr":`, &s.SR)
	optNums(c, `,"sm":`, &s.SM)
	c.lit("}")
}

func (c *ckCodec) walkCacheStats(key string, s *cache.Stats) {
	c.lit(key)
	u(c, `{"Hits":`, &s.Hits)
	u(c, `,"Misses":`, &s.Misses)
	u(c, `,"Evictions":`, &s.Evictions)
	u(c, `,"DirtyEvicts":`, &s.DirtyEvicts)
	u(c, `,"Spills":`, &s.Spills)
	n(c, `,"MaxOverflow":`, &s.MaxOverflow)
	u(c, `,"Invalidations":`, &s.Invalidations)
	c.lit("}")
}

func (c *ckCodec) walkTagArray(t *cache.TagArrayState) {
	u(c, `{"clock":`, &t.Clock)
	optNums(c, `,"way":`, &t.Way)
	optNums(c, `,"tag":`, &t.Tag)
	optNums(c, `,"lru":`, &t.LRU)
	optNums(c, `,"invalid":`, &t.Invalid)
	c.lit("}")
}

func (c *ckCodec) walkDir(d *DirState) {
	u(c, `{"nstid":`, &d.NSTID)
	optNums(c, `,"done":`, &d.Done)
	c.walkDirEntries(`,"entries":`, &d.Entries)
	c.walkDirMemory(`,"memory":`, &d.Memory)
	optNums(c, `,"marked_lines":`, &d.MarkedLines)
	n(c, `,"mark_owner":`, &d.MarkOwner)
	optTrue(c, `,"commit_busy":`, &d.CommitBusy)
	optN(c, `,"commit_acks":`, &d.CommitAcks)
	optN(c, `,"commit_flushes":`, &d.CommitFlushes)
	optU(c, `,"pending_commit_tid":`, &d.PendingCommitTID)
	optArr(c, `,"probes":`, &d.Probes, c.walkProbe)
	optU(c, `,"probe_min":`, &d.ProbeMin)
	optArr(c, `,"stalls":`, &d.Stalls, c.walkStall)
	u(c, `,"next_free":`, &d.NextFree)
	optArr(c, `,"dir_cache":`, &d.DirCache, c.walkDirCacheStamp)
	optU(c, `,"dir_cache_clock":`, &d.DirCacheClock)
	optN(c, `,"remote_entries":`, &d.RemoteEntries)
	c.walkDirStats(`,"stats":`, &d.Stats)
	optNums(c, `,"occ_hist":`, &d.OccHist)
	optNums(c, `,"ws_hist":`, &d.WsHist)
	optU(c, `,"cur_busy":`, &d.CurBusy)
	c.lit("}")
}

func (c *ckCodec) walkDirEntries(key string, e *DirEntries) {
	c.lit(key)
	nums(c, `{"base":`, &e.Base)
	optNums(c, `,"owner":`, &e.Owner)
	optNums(c, `,"owner_tid":`, &e.OwnerTID)
	optNums(c, `,"owned_words":`, &e.OwnedWords)
	optNums(c, `,"sharer_of":`, &e.SharerOf)
	optNums(c, `,"sharer":`, &e.Sharer)
	optNums(c, `,"pending_of":`, &e.PendingOf)
	optNums(c, `,"pending":`, &e.Pending)
	optNums(c, `,"marked":`, &e.Marked)
	optNums(c, `,"mark_words":`, &e.MarkWords)
	optNums(c, `,"mark_data_of":`, &e.MarkDataOf)
	optNums(c, `,"mark_data":`, &e.MarkData)
	c.lit("}")
}

func (c *ckCodec) walkDirMemory(key string, m *DirMemory) {
	c.lit(key)
	nums(c, `{"id":`, &m.ID)
	optNums(c, `,"words":`, &m.Words)
	c.lit("}")
}

func (c *ckCodec) walkProbe(p *ProbeState) {
	u(c, `{"t":`, &p.T)
	optTrue(c, `,"write":`, &p.Write)
	n(c, `,"from":`, &p.From)
	c.lit("}")
}

func (c *ckCodec) walkStall(s *StallState) {
	u(c, `{"base":`, &s.Base)
	arr(c, `,"loads":`, &s.Loads, c.walkPendingLoad)
	c.lit("}")
}

func (c *ckCodec) walkPendingLoad(l *PendingLoadState) {
	u(c, `{"addr":`, &l.Addr)
	n(c, `,"from":`, &l.From)
	optU(c, `,"req_tid":`, &l.ReqTID)
	c.lit("}")
}

func (c *ckCodec) walkDirCacheStamp(s *DirCacheStamp) {
	u(c, `{"addr":`, &s.Addr)
	u(c, `,"stamp":`, &s.Stamp)
	c.lit("}")
}

func (c *ckCodec) walkDirStats(key string, s *DirStats) {
	c.lit(key)
	u(c, `{"DirCacheMisses":`, &s.DirCacheMisses)
	u(c, `,"CommitsServiced":`, &s.CommitsServiced)
	u(c, `,"SkipsProcessed":`, &s.SkipsProcessed)
	u(c, `,"AbortsProcessed":`, &s.AbortsProcessed)
	u(c, `,"LoadsServiced":`, &s.LoadsServiced)
	u(c, `,"LoadsStalled":`, &s.LoadsStalled)
	u(c, `,"Forwards":`, &s.Forwards)
	u(c, `,"WriteBacks":`, &s.WriteBacks)
	u(c, `,"DroppedWBs":`, &s.DroppedWBs)
	u(c, `,"Invalidations":`, &s.Invalidations)
	u(c, `,"BusyCycles":`, &s.BusyCycles)
	c.lit("}")
}

func (c *ckCodec) walkRecord(rec *CommitRecord) {
	u(c, `{"TID":`, &rec.TID)
	n(c, `,"Proc":`, &rec.Proc)
	words(c, `,"Reads":`, &rec.Reads)
	words(c, `,"Writes":`, &rec.Writes)
	c.lit("}")
}

// ports walks port_state, which only a retired-layout checkpoint has and
// Restore refuses. The encoder has json.Marshal compact and escape it as it
// does inside a Checkpoint, and writes null for bytes that are not JSON,
// which make json.Marshal(ck) fail; the decoder leaves it to json.Unmarshal.
func ports(c *ckCodec, key string, p *json.RawMessage) {
	if !c.opt(key, len(*p) > 0) {
		return
	}
	if c.dec {
		c.r.fail()
		return
	}
	enc, err := json.Marshal(*p)
	if err != nil {
		enc = []byte("null")
	}
	c.b = append(c.b, enc...)
}

// words walks a record side: verify.Words.AppendJSON writes it and
// ckReader.words reads it.
func words(c *ckCodec, key string, w *verify.Words) {
	c.lit(key)
	if c.dec {
		*w = c.r.words()
	} else {
		c.b = w.AppendJSON(c.b)
	}
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

// Field helpers. Each walks one field in c's direction; the opt ones are
// omitempty fields, absent when zero, so a decoded one must not be zero.

// lit writes s, or consumes it or fails.
func (c *ckCodec) lit(s string) {
	if c.dec {
		c.r.lit(s)
	} else {
		c.b = append(c.b, s...)
	}
}

// opt reports whether an omitempty field is present: encoding, whether it is
// set, writing key if so; decoding, whether key comes next.
func (c *ckCodec) opt(key string, set bool) bool {
	if c.dec {
		return c.r.has(key)
	}
	if set {
		c.b = append(c.b, key...)
	}
	return set
}

// null reports whether a slice or pointer is null: encoding, whether it is
// nil, writing null if so; decoding, whether null comes next.
func (c *ckCodec) null(isNil bool) bool { return c.opt("null", isNil) }

// more reports whether element i of an array follows, writing or consuming
// the ',' before it, or else the ']' that ends the array: encoding, n
// elements; decoding, as many as the input holds.
func (c *ckCodec) more(i, n int) bool {
	if !c.dec {
		if i == n {
			c.b = append(c.b, ']')
			return false
		}
		if i > 0 {
			c.b = append(c.b, ',')
		}
		return true
	}
	if i == 0 {
		return !c.r.has("]") && !c.r.bad
	}
	if c.r.has(",") {
		return true
	}
	c.r.lit("]")
	return false
}

// u walks an unsigned field. A decoded value must fit T.
func u[T ~uint64 | ~uint32](c *ckCodec, key string, v *T) {
	if c.dec {
		c.r.lit(key)
		x := c.r.u64()
		if uint64(T(x)) != x {
			c.r.fail()
		}
		*v = T(x)
		return
	}
	c.b = appendUint(append(c.b, key...), uint64(*v))
}

// appendUint is strconv.AppendUint(b, v, 10). Most numbers in a checkpoint
// are single digits, and it writes those without a call.
func appendUint(b []byte, v uint64) []byte {
	if v < 10 {
		return append(b, byte('0'+v))
	}
	return strconv.AppendUint(b, v, 10)
}

func optU[T ~uint64](c *ckCodec, key string, v *T) {
	if c.opt(key, *v != 0) {
		u(c, "", v)
		if *v == 0 {
			c.r.fail()
		}
	}
}

// n walks a signed field. A decoded value must fit T.
func n[T ~int | ~int32](c *ckCodec, key string, v *T) {
	if c.dec {
		c.r.lit(key)
		x := c.r.int()
		if int(T(x)) != x {
			c.r.fail()
		}
		*v = T(x)
		return
	}
	c.b = strconv.AppendInt(append(c.b, key...), int64(*v), 10)
}

func optN(c *ckCodec, key string, v *int) {
	if c.opt(key, *v != 0) {
		n(c, "", v)
		if *v == 0 {
			c.r.fail()
		}
	}
}

// optTrue walks an omitempty bool, which json.Marshal writes only when true.
func optTrue(c *ckCodec, key string, v *bool) {
	if c.opt(key, *v) {
		c.lit("true")
		*v = true
	}
}

// str walks a string field. Encoding goes through obs.AppendString;
// decoding reads only a string that needs no escape.
func str(c *ckCodec, key string, v *string) {
	c.lit(key)
	if c.dec {
		*v = c.r.str()
	} else {
		c.b = obs.AppendString(c.b, *v)
	}
}

// arr walks a slice field as a JSON array, each element by f. As
// json.Unmarshal does, a decoded null is nil and [] is empty but not nil.
func arr[T any](c *ckCodec, key string, s *[]T, f func(*T)) {
	c.lit(key)
	if c.null(*s == nil) {
		return
	}
	c.lit("[")
	if c.dec {
		*s = []T{}
	}
	for i := 0; c.more(i, len(*s)); i++ {
		if c.dec {
			*s = append(*s, *new(T))
		}
		f(&(*s)[i])
	}
}

func optArr[T any](c *ckCodec, key string, s *[]T, f func(*T)) {
	if c.opt(key, len(*s) > 0) {
		arr(c, "", s, f)
		if len(*s) == 0 {
			c.r.fail()
		}
	}
}

// ptr walks a pointer field, null when nil, the value it points to by f.
func ptr[T any](c *ckCodec, key string, p **T, f func(*T)) {
	c.lit(key)
	if c.null(*p == nil) {
		return
	}
	if c.dec {
		*p = new(T)
	}
	f(*p)
}

// nums is arr for the integer types, the bulk of a checkpoint, with tight
// loops of its own. A decoded slice is allocated once.
func nums[T ~int | ~uint64](c *ckCodec, key string, s *[]T) {
	c.lit(key)
	if c.null(*s == nil) {
		return
	}
	signed := T(0)-1 < 0 // it wraps for the unsigned types
	if !c.dec {
		b := append(c.b, '[')
		for i, v := range *s {
			if i > 0 {
				b = append(b, ',')
			}
			if signed && v < 0 {
				b = strconv.AppendInt(b, int64(v), 10)
			} else {
				b = appendUint(b, uint64(v))
			}
		}
		c.b = append(b, ']')
		return
	}
	r := &c.r
	r.lit("[")
	if r.has("]") {
		*s = []T{}
		return
	}
	d := make([]T, 0, r.flatLen())
	for !r.bad {
		if signed {
			d = append(d, T(r.int()))
		} else {
			d = append(d, T(r.u64()))
		}
		if !r.has(",") {
			r.lit("]")
			break
		}
	}
	*s = d
}

func optNums[T ~int | ~uint64](c *ckCodec, key string, s *[]T) {
	if c.opt(key, len(*s) > 0) {
		nums(c, "", s)
		if len(*s) == 0 {
			c.r.fail()
		}
	}
}

// fixed walks a Go array of unsigned integers, which json.Marshal writes as
// a JSON array of exactly len(a) elements.
func fixed[T ~uint64](c *ckCodec, key string, a []T) {
	c.lit(key)
	c.lit("[")
	for i := range a {
		if i > 0 {
			c.lit(",")
		}
		u(c, "", &a[i])
	}
	c.lit("]")
}

// linkClocks walks the mesh's per-direction link clocks.
func linkClocks(c *ckCodec, key string, a *[4][]sim.Time) {
	c.lit(key)
	c.lit("[")
	for d := range a {
		if d > 0 {
			c.lit(",")
		}
		nums(c, "", &a[d])
	}
	c.lit("]")
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

// flatLen counts the elements of the array of scalars whose first element,
// or closing ']', is next, so the slice is allocated once.
func (r *ckReader) flatLen() int {
	rest := r.b[r.i:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	if len(rest) == 0 {
		return 0
	}
	return bytes.Count(rest, []byte{','}) + 1
}
