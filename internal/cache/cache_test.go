package cache

import (
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"scalabletcc/internal/bits"
	"scalabletcc/internal/mem"
)

func g() mem.Geometry { return mem.DefaultGeometry() }

func small() *Cache { return New(g(), 1024, 2) } // 32 lines, 16 sets, 2 ways

func line0(v mem.Version) []mem.Version {
	d := make([]mem.Version, 8)
	for i := range d {
		d[i] = v
	}
	return d
}

func TestInsertLookup(t *testing.T) {
	c := small()
	if c.Lookup(0x100) != nil {
		t.Fatal("hit on empty cache")
	}
	l, v := c.Insert(0x100, line0(7))
	if v != nil {
		t.Fatal("victim from empty set")
	}
	if !l.Valid || l.Base != 0x100 || l.Data[0] != 7 {
		t.Fatal("inserted line malformed")
	}
	if l.VW != bits.All(8) {
		t.Fatal("inserted line not fully valid")
	}
	if c.Lookup(0x100) == nil {
		t.Fatal("miss after insert")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInsertDuplicatePanics(t *testing.T) {
	c := small()
	c.Insert(0x100, line0(1))
	defer func() {
		if recover() == nil {
			t.Error("duplicate insert did not panic")
		}
	}()
	c.Insert(0x100, line0(2))
}

func TestLRUEviction(t *testing.T) {
	c := small() // 16 sets: lines 0x0, 0x200, 0x400 map to set 0
	c.Insert(0x0, line0(1))
	c.Insert(0x200, line0(2))
	c.Lookup(0x0) // touch: 0x200 is now LRU
	_, v := c.Insert(0x400, line0(3))
	if v == nil || v.Base != 0x200 {
		t.Fatalf("victim = %+v, want 0x200", v)
	}
	if c.Peek(0x200) != nil {
		t.Fatal("evicted line still resident")
	}
}

func TestDirtyVictimCarriesData(t *testing.T) {
	c := small()
	l, _ := c.Insert(0x0, line0(5))
	l.Dirty = true
	l.OW = bits.All(8)
	c.Insert(0x200, line0(0))
	_, v := c.Insert(0x400, line0(0))
	if v == nil || !v.Dirty || v.Data[3] != 5 || v.OW != bits.All(8) {
		t.Fatalf("dirty victim = %+v", v)
	}
	if c.Stats().DirtyEvicts != 1 {
		t.Fatal("dirty evict not counted")
	}
}

func TestSpeculativePinningAndSpill(t *testing.T) {
	c := small()
	l1, _ := c.Insert(0x0, line0(1))
	l1.SR = l1.SR.Set(0)
	l2, _ := c.Insert(0x200, line0(2))
	l2.SM = l2.SM.Set(1)
	// Both ways pinned: next insert must spill, not evict.
	l3, v := c.Insert(0x400, line0(3))
	if v != nil {
		t.Fatalf("pinned line evicted: %+v", v)
	}
	if l3 == nil || c.Peek(0x400) == nil {
		t.Fatal("spilled line not resident")
	}
	st := c.Stats()
	if st.Spills != 1 || st.MaxOverflow != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if c.SpeculativeLines() != 2 {
		t.Fatalf("SpeculativeLines = %d", c.SpeculativeLines())
	}
}

func TestRollbackTx(t *testing.T) {
	c := small()
	lr, _ := c.Insert(0x0, line0(1))
	lr.SR = lr.SR.Set(2)
	c.Track(lr)
	lw, _ := c.Insert(0x20, line0(2))
	lw.SM = lw.SM.Set(3)
	c.Track(lw)
	ld, _ := c.Insert(0x40, line0(3))
	ld.Dirty = true
	c.RollbackTx()
	if got := c.Peek(0x0); got == nil || got.SR != 0 {
		t.Fatal("SR line should survive with SR cleared")
	}
	if c.Peek(0x20) != nil {
		t.Fatal("SM line must be dropped on rollback")
	}
	if got := c.Peek(0x40); got == nil || !got.Dirty {
		t.Fatal("committed dirty line must survive rollback")
	}
}

func TestCommitTx(t *testing.T) {
	c := small()
	l, _ := c.Insert(0x0, line0(0))
	l.SM = l.SM.Set(1).Set(3)
	l.SR = l.SR.Set(5)
	c.Track(l)
	spill := c.CommitTx(42)
	if len(spill) != 0 {
		t.Fatalf("unexpected spill: %v", spill)
	}
	got := c.Peek(0x0)
	if got.Data[1] != 42 || got.Data[3] != 42 {
		t.Fatal("SM words not stamped with commit version")
	}
	if got.Data[0] != 0 {
		t.Fatal("non-SM word stamped")
	}
	if !got.Dirty || got.OW != bits.WordMask(0).Set(1).Set(3) {
		t.Fatalf("owned state wrong: dirty=%v ow=%#x", got.Dirty, got.OW)
	}
	if got.SR != 0 || got.SM != 0 {
		t.Fatal("speculative bits survived commit")
	}
}

func TestCommitDrainsOverflow(t *testing.T) {
	c := small()
	a, _ := c.Insert(0x0, line0(1))
	a.SR = a.SR.Set(0)
	c.Track(a)
	b, _ := c.Insert(0x200, line0(2))
	b.SR = b.SR.Set(0)
	c.Track(b)
	ov, _ := c.Insert(0x400, line0(3))
	ov.SM = ov.SM.Set(0)
	c.Track(ov) // overflow line: Track is a no-op, the map walk covers it
	if c.Stats().Spills != 1 {
		t.Fatal("expected a spill")
	}
	c.CommitTx(9)
	// The overflow line must be re-homed into the now-unpinned set.
	got := c.Peek(0x400)
	if got == nil {
		t.Fatal("overflow line lost at commit")
	}
	if got.Data[0] != 9 || !got.Dirty {
		t.Fatal("overflow line not committed properly")
	}
	if c.SpeculativeLines() != 0 {
		t.Fatal("speculative state survived commit")
	}
}

// Tracked-line bookkeeping must survive the awkward lifecycles: a tracked
// slot being invalidated (stale entry), re-filled and re-tracked (duplicate
// entry), and plain repeat tracking.
func TestTrackStaleAndDuplicateEntries(t *testing.T) {
	c := small()
	l, _ := c.Insert(0x0, line0(1))
	l.SR = l.SR.Set(0)
	c.Track(l)
	c.Track(l) // repeat tracking is a no-op
	c.Invalidate(0x0)

	// Re-fill the same slot with a different line and track it again: the
	// stale first entry and the fresh one now alias the same slot.
	l2, _ := c.Insert(0x0, line0(2))
	l2.SM = l2.SM.Set(1)
	c.Track(l2)

	n := 0
	c.ForEachSpeculative(func(got *Line) {
		n++
		if got.Base != 0x0 || !got.SM.Has(1) {
			t.Fatalf("unexpected speculative line %+v", got)
		}
	})
	if n != 1 {
		t.Fatalf("ForEachSpeculative visited %d lines, want 1", n)
	}

	c.CommitTx(7)
	if got := c.Peek(0x0); got == nil || got.Data[1] != 7 || got.SM != 0 {
		t.Fatalf("commit through duplicate tracking failed: %+v", c.Peek(0x0))
	}
	if c.SpeculativeLines() != 0 {
		t.Fatal("speculative state survived commit")
	}

	// Same shape through rollback: the SM line must drop, and the stale
	// entry must not resurrect anything.
	l3, _ := c.Insert(0x20, line0(3))
	l3.SM = l3.SM.Set(0)
	c.Track(l3)
	c.Invalidate(0x20)
	c.RollbackTx()
	if c.Peek(0x20) != nil {
		t.Fatal("stale tracked entry resurrected an invalidated line")
	}
}

// ForEachSpeculative must visit main-array lines in slot order and overflow
// lines last in address order, matching ForEach's deterministic order.
func TestForEachSpeculativeOrder(t *testing.T) {
	c := small()
	// Insert in descending set order so first-touch order differs from slot
	// order.
	hi, _ := c.Insert(0x1e0, line0(1)) // set 15
	hi.SM = hi.SM.Set(0)
	c.Track(hi)
	lo, _ := c.Insert(0x0, line0(2)) // set 0
	lo.SR = lo.SR.Set(0)
	c.Track(lo)

	var want []mem.Addr
	c.ForEach(func(l *Line) {
		if l.Speculative() {
			want = append(want, l.Base)
		}
	})
	var got []mem.Addr
	c.ForEachSpeculative(func(l *Line) { got = append(got, l.Base) })
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("order mismatch: got %v, want %v", got, want)
		}
	}
}

func TestInvalidate(t *testing.T) {
	c := small()
	c.Insert(0x0, line0(1))
	snap := c.Invalidate(0x0)
	if snap == nil || snap.Data[0] != 1 {
		t.Fatal("invalidate did not return the line")
	}
	if c.Peek(0x0) != nil {
		t.Fatal("line survived invalidation")
	}
	if c.Invalidate(0x0) != nil {
		t.Fatal("double invalidate returned a line")
	}
}

func TestForEachCoversOverflow(t *testing.T) {
	c := small()
	a, _ := c.Insert(0x0, line0(1))
	a.SR = 1
	b, _ := c.Insert(0x200, line0(2))
	b.SR = 1
	ovl, _ := c.Insert(0x400, line0(3))
	ovl.SM = 1
	n := 0
	c.ForEach(func(l *Line) { n++ })
	if n != 3 {
		t.Fatalf("ForEach visited %d lines, want 3", n)
	}
}

// Property: the cache never holds two lines with the same base, and Peek
// always agrees with the set of inserted-and-not-evicted lines.
func TestCacheModelProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := small()
		model := map[mem.Addr]bool{}
		for _, op := range ops {
			base := mem.Addr(op%64) * 32
			switch op % 3 {
			case 0:
				if c.Peek(base) == nil {
					_, v := c.Insert(base, line0(mem.Version(op)))
					if v != nil {
						delete(model, v.Base)
					}
					model[base] = true
				}
			case 1:
				c.Invalidate(base)
				delete(model, base)
			case 2:
				got := c.Peek(base) != nil
				if got != model[base] {
					return false
				}
			}
		}
		for base := range model {
			if c.Peek(base) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Overflow lines must drain back through commit even when the transaction
// invalidated lines along the way: partial VW masks survive the re-home, the
// drain fills freed ways first, and anything that still cannot fit surfaces
// as a victim carrying committed data.
func TestCommitDrainsOverflowPartialInvalidation(t *testing.T) {
	c := small()
	pinA, _ := c.Insert(0x0, line0(1))
	pinA.SR = pinA.SR.Set(0)
	c.Track(pinA)
	pinB, _ := c.Insert(0x200, line0(2))
	pinB.SM = pinB.SM.Set(2)
	c.Track(pinB)

	// Both ways of set 0 pinned: the next two inserts spill.
	ov1, _ := c.Insert(0x400, line0(3))
	ov1.VW = bits.WordMask(0).Set(0).Set(1) // partially filled line
	ov1.SM = ov1.SM.Set(1)
	ov2, _ := c.Insert(0x600, line0(4))
	ov2.SM = ov2.SM.Set(0)
	if c.Stats().Spills != 2 {
		t.Fatalf("spills = %d, want 2", c.Stats().Spills)
	}

	// Mid-transaction conflict kills the SR line, freeing one way.
	if snap := c.Invalidate(0x0); snap == nil || !snap.SR.Has(0) {
		t.Fatalf("invalidate snapshot = %+v", snap)
	}

	spill := c.CommitTx(9)

	// 0x400 drains into the freed way (drain order is ascending base); 0x600
	// then evicts the just-committed 0x200 line via LRU, which must surface
	// as a dirty victim carrying its committed data.
	got := c.Peek(0x400)
	if got == nil {
		t.Fatal("0x400 not re-homed at commit")
	}
	if got.VW != bits.WordMask(0).Set(0).Set(1) {
		t.Fatalf("partial VW lost in drain: %#x", got.VW)
	}
	if got.Data[1] != 9 || !got.Dirty || got.OW != bits.WordMask(0).Set(1) {
		t.Fatalf("drained line not committed: %+v", got)
	}
	got = c.Peek(0x600)
	if got == nil || got.Data[0] != 9 || !got.Dirty || got.OW != bits.WordMask(0).Set(0) {
		t.Fatalf("second drained line = %+v", got)
	}
	if len(spill) != 1 || spill[0].Base != 0x200 || !spill[0].Dirty || spill[0].Data[2] != 9 {
		t.Fatalf("commit spill = %+v, want dirty 0x200 with committed data", spill)
	}
	if c.Peek(0x0) != nil || c.Peek(0x200) != nil {
		t.Fatal("invalidated/evicted lines still resident")
	}
	if len(c.ovLines) != 0 || len(c.ovRetired) != 0 || c.ovW != 0 {
		t.Fatalf("overflow not drained: live=%d retired=%d watermark=%d",
			len(c.ovLines), len(c.ovRetired), c.ovW)
	}
	if c.SpeculativeLines() != 0 {
		t.Fatal("speculative state survived commit")
	}
	if err := c.Audit(true); err != nil {
		t.Fatalf("post-commit audit: %v", err)
	}
}

// RollbackTx is an arena-snapshot wipe: tracked SM lines gang-clear, SR-only
// lines survive with their data, and the whole overflow area — live spilled
// bodies and mid-transaction-invalidated ones alike — rewinds to the pool in
// O(tracked). A second transaction must then reuse the pooled bodies and
// behave identically.
func TestRollbackArenaWipe(t *testing.T) {
	c := small()
	run := func(tag mem.Version) {
		lr, _ := c.Insert(0x0, line0(tag))
		lr.SR = lr.SR.Set(4)
		c.Track(lr)
		lw, _ := c.Insert(0x200, line0(tag+1))
		lw.SM = lw.SM.Set(0)
		c.Track(lw)
		ov1, _ := c.Insert(0x400, line0(tag+2))
		ov1.SM = ov1.SM.Set(3)
		ov2, _ := c.Insert(0x600, line0(tag+3))
		ov2.SR = ov2.SR.Set(1)
		// Mid-transaction conflict retires one overflow body before the abort.
		if c.Invalidate(0x400) == nil {
			t.Fatal("overflow invalidate missed")
		}
		c.RollbackTx()

		if got := c.Peek(0x0); got == nil || got.SR != 0 || got.Data[0] != tag {
			t.Fatalf("SR line after rollback = %+v", got)
		}
		for _, base := range []mem.Addr{0x200, 0x400, 0x600} {
			if c.Peek(base) != nil {
				t.Fatalf("line %#x survived rollback", base)
			}
		}
		if n := len(c.ovLines) + len(c.ovRetired); n != 0 || c.ovW != 0 {
			t.Fatalf("overflow not wiped: live+retired=%d watermark=%d", n, c.ovW)
		}
		if c.SpeculativeLines() != 0 {
			t.Fatal("speculative state survived rollback")
		}
		if err := c.Audit(true); err != nil {
			t.Fatalf("post-rollback audit: %v", err)
		}
	}
	run(10)
	if len(c.ovPool) != 2 {
		t.Fatalf("pool holds %d bodies after first abort, want 2", len(c.ovPool))
	}
	c.Invalidate(0x0) // clear the survivor so the second round replays identically
	run(20)
	if len(c.ovPool) != 2 {
		t.Fatalf("pool grew across transactions: %d bodies", len(c.ovPool))
	}
}

// Property: RollbackTx agrees with a reference model over arbitrary
// interleavings of insert, speculative tracking, invalidation, and abort.
// The model encodes the pre-arena rollback semantics — SM lines and every
// spilled line drop, SR-only resident lines survive with SR cleared — so the
// arena-snapshot implementation must be indistinguishable from the old
// per-line walk.
func TestRollbackEquivalenceProperty(t *testing.T) {
	type ref struct{ spilled, sr, sm bool }
	abortModel := func(model map[mem.Addr]*ref) {
		for b, r := range model {
			if r.sm || r.spilled {
				delete(model, b)
				continue
			}
			r.sr = false
		}
	}
	f := func(ops []uint16) bool {
		c := small()
		model := map[mem.Addr]*ref{}
		for _, op := range ops {
			base := mem.Addr(op%64) * 32
			w := int(op>>6) % 8
			switch op % 5 {
			case 0: // fill
				if c.Peek(base) != nil {
					continue
				}
				before := c.Stats().Spills
				_, v := c.Insert(base, line0(mem.Version(op)))
				if v != nil {
					delete(model, v.Base)
				}
				model[base] = &ref{spilled: c.Stats().Spills != before}
			case 1: // speculative read
				if l := c.Peek(base); l != nil {
					l.SR = l.SR.Set(w)
					c.Track(l)
					if r, ok := model[base]; ok {
						r.sr = true
					}
				}
			case 2: // speculative write
				if l := c.Peek(base); l != nil {
					l.SM = l.SM.Set(w)
					c.Track(l)
					if r, ok := model[base]; ok {
						r.sm = true
					}
				}
			case 3: // conflict invalidation
				if c.Invalidate(base) != nil {
					delete(model, base)
				}
			case 4: // abort
				c.RollbackTx()
				abortModel(model)
			}
		}
		c.RollbackTx()
		abortModel(model)
		for i := 0; i < 64; i++ {
			base := mem.Addr(i) * 32
			l := c.Peek(base)
			if _, want := model[base]; (l != nil) != want {
				return false
			}
			if l != nil && (l.SR != 0 || l.SM != 0) {
				return false
			}
		}
		if c.SpeculativeLines() != 0 {
			return false
		}
		return c.Audit(true) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTagArray(t *testing.T) {
	ta := NewTagArray(g(), 256, 2) // 8 lines, 4 sets
	if ta.Access(0x0) {
		t.Fatal("hit on empty tag array")
	}
	if !ta.Access(0x0) {
		t.Fatal("miss after fill")
	}
	// Fill the set (0x0, 0x80 map to set 0 with 4 sets * 32B lines).
	ta.Access(0x80)
	ta.Access(0x0) // touch 0x0
	ta.Access(0x100)
	// 0x80 was LRU and must have been evicted.
	if ta.Access(0x80) {
		t.Fatal("expected 0x80 to have been evicted")
	}
	ta.Invalidate(0x100)
	// After eviction of 0x0 or presence, just ensure no panic and miss:
	_ = ta.Access(0x100)
}

func TestTagArrayInvalidate(t *testing.T) {
	ta := NewTagArray(g(), 256, 2)
	ta.Access(0x40)
	ta.Invalidate(0x40)
	if ta.Access(0x40) {
		t.Fatal("hit after invalidate")
	}
	ta.Invalidate(0x9999) // absent: no panic
}

func TestBadShapesPanic(t *testing.T) {
	for i, fn := range []func(){
		func() { New(g(), 96, 5) }, // 3 lines not divisible by 5 ways
		func() { New(g(), 0, 1) },
		func() { New(g(), 96, 1) }, // 3 sets: not a power of two
		func() { NewTagArray(g(), 96, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: bad shape did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestAuditCleanCache(t *testing.T) {
	c := small()
	l, _ := c.Insert(0x100, line0(1))
	l.SR = l.SR.Set(2)
	c.Track(l)
	if err := c.Audit(false); err != nil {
		t.Fatalf("clean mid-transaction cache failed audit: %v", err)
	}
	c.CommitTx(7)
	if err := c.Audit(true); err != nil {
		t.Fatalf("clean post-commit cache failed audit: %v", err)
	}
}

func TestAuditCatchesUntrackedSpeculativeLine(t *testing.T) {
	c := small()
	l, _ := c.Insert(0x100, line0(1))
	l.SM = l.SM.Set(0) // speculative write without Track: a spec leak in waiting
	if err := c.Audit(false); err == nil {
		t.Fatal("untracked speculative line passed audit")
	}
}

func TestAuditCatchesSpecLeakAtBoundary(t *testing.T) {
	c := small()
	l, _ := c.Insert(0x100, line0(1))
	l.SR = l.SR.Set(1)
	c.Track(l)
	// Sabotage: clear the tracked flag so CommitTx skips the line.
	l.tracked = false
	c.CommitTx(9)
	if err := c.Audit(true); err == nil {
		t.Fatal("SR bits surviving a commit boundary passed audit")
	}
}

func TestAuditCatchesDirtyOwnedMismatch(t *testing.T) {
	c := small()
	l, _ := c.Insert(0x100, line0(1))
	l.Dirty = true // dirty with no owned words
	if err := c.Audit(false); err == nil {
		t.Fatal("dirty/OW mismatch passed audit")
	}
	l.Dirty = false
	l.OW = l.OW.Set(3) // owned words on a clean line
	if err := c.Audit(false); err == nil {
		t.Fatal("OW on clean line passed audit")
	}
}

// With more than one chunk of touched sets, Line bodies and tag-mirror
// slots never move as later sets claim blocks, the cache audits clean, and
// a snapshot survives Restore into a fresh cache unchanged.
func TestStorageStableAcrossSlotChunks(t *testing.T) {
	c := New(g(), 64*1024, 4) // 512 sets, 4 ways
	const first = 3 * chunkBlocks / 2
	lines := make([]*Line, first)
	tags := make([]*mem.Addr, first)
	for i := range lines {
		l, _ := c.Insert(mem.Addr(32*i), line0(mem.Version(i)))
		lines[i], tags[i] = l, c.tag(l.slot)
	}
	for i := first; i < 5*chunkBlocks; i++ {
		c.Insert(mem.Addr(32*i), line0(mem.Version(i)))
	}
	for i := 0; i < first; i += 7 {
		c.Insert(mem.Addr(32*(i+c.sets)), line0(1)) // a second way in an early set
	}
	for i, l := range lines {
		base := mem.Addr(32 * i)
		if got := c.Peek(base); got != l {
			t.Fatalf("line %#x moved: Peek = %p, first fill = %p", base, got, l)
		}
		if c.tag(l.slot) != tags[i] || *tags[i] != base {
			t.Fatalf("line %#x tag slot moved or lost its tag", base)
		}
		if i%5 == 0 {
			l.SR = l.SR.Set(2)
			c.Track(l)
		}
	}
	if err := c.Audit(false); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	r := New(g(), 64*1024, 4)
	if err := r.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if err := r.Audit(false); err != nil {
		t.Fatal(err)
	}
	if again := r.Snapshot(); !reflect.DeepEqual(again, snap) {
		t.Fatal("snapshot of the restored cache differs")
	}
	c.RollbackTx()
	if err := c.Audit(true); err != nil {
		t.Fatal(err)
	}
	if n := unsafe.Sizeof(Line{}); n != 88 {
		t.Fatalf("Line is %d bytes, want 88", n)
	}
}
