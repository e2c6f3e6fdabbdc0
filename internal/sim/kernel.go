// Package sim provides the discrete-event simulation kernel used by every
// timed component in the simulator: the mesh interconnect, caches,
// directories, processors, and the TID vendor.
//
// The kernel is deliberately minimal: a priority queue of (time, sequence)
// ordered events. Components model latency by scheduling follow-up events;
// they model occupancy/contention by keeping "next free" timestamps and
// scheduling work at max(now, nextFree).
//
// Every event is typed (Post/PostAfter): a Handler receiver plus a small
// opcode and two word-sized arguments, stored by value in the queue so
// steady-state scheduling allocates nothing, and nameable by a snapshot.
// Payloads larger than two words live in component-owned pooled records
// whose index travels in an argument. There is deliberately no closure
// form: a captured closure allocates per event and cannot be checkpointed.
//
// The queue is a two-level bucketed timing wheel. Nearly every event this
// simulator schedules lands within a short horizon of the current cycle —
// hop latencies, cache and directory occupancies, memory accesses are all
// single-digit to low-hundreds of cycles — so the first level is a dense
// ring of per-cycle buckets covering the next wheelSize cycles. Scheduling
// within the horizon is an O(1) append; popping is an O(1) bitmap scan to
// the next occupied bucket. The rare far-future event (a long back-off, a
// sampler tick, a congested pipeline's drift) goes to a second-level 4-ary
// min-heap and migrates into the ring when the wheel advances within
// wheelSize cycles of it.
//
// Determinism is a hard requirement (the serializability checker and the
// regression tests depend on bit-identical replays), so ties in time are
// broken by a monotonically increasing sequence number assigned at schedule
// time. The (at, seq) key is a strict total order. Inside a bucket that
// order is maintained for free: all events in one bucket share one cycle,
// new events always carry a larger sequence number than anything already
// queued, and overflow events migrate in (at, seq) heap order before any
// later event can be appended behind them — so bucket append order is
// sequence order, and the wheel pops exactly the order the old heap did.
package sim

import "math/bits"

// Time is the simulation clock in cycles.
type Time uint64

// Wheel geometry: wheelSize per-cycle buckets (a power of two), with a
// 64-bit-word occupancy bitmap for O(1) next-bucket scans.
const (
	wheelBits  = 8
	wheelSize  = 1 << wheelBits // horizon: cycles the dense ring covers
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
)

// Handler receives typed events. Implementations dispatch on code; a1/a2
// carry small event-specific payloads (an epoch to guard staleness, a pooled
// record index, a node id). Larger payloads live in component-owned pools
// referenced by index through a1/a2.
type Handler interface {
	HandleEvent(code uint32, a1, a2 uint64)
}

// event is one scheduled unit of work, ordered by (at, seq): at time at,
// h.HandleEvent(code, a1, a2) runs.
type event struct {
	at   Time
	seq  uint64
	a1   uint64
	a2   uint64
	h    Handler
	code uint32
}

// node is one wheel-resident event in the shared slab, linked into its
// bucket's FIFO list. Links are 1-based slab indices; 0 is the nil link, so
// the Kernel's zero value needs no initialization.
type node struct {
	ev   event
	next int32
}

// Kernel is a deterministic discrete-event scheduler.
// The zero value is ready to use.
type Kernel struct {
	// Level 1: the dense ring. Bucket t&wheelMask holds the events of cycle
	// t for t in [base, base+wheelSize) as a FIFO list of slab nodes
	// (head/tail are 1-based indices into nodes; 0 = empty); occ mirrors
	// which buckets are non-empty. The slab and its free list grow to the
	// peak event population once and then recycle, so steady-state
	// scheduling allocates nothing.
	nodes   []node
	free    int32 // free-list head, 1-based; 0 = empty
	head    [wheelSize]int32
	tail    [wheelSize]int32
	occ     [wheelWords]uint64
	base    Time
	inWheel int

	// Level 2: far-future events (at >= base+wheelSize), an inlined 4-ary
	// min-heap on (at, seq).
	over []event

	// cur is the drain buffer: the current cycle's bucket is unlinked into it
	// (in sequence order) as 1-based node indices, so dispatch never touches
	// queue structure between same-cycle events and never copies the
	// pointer-carrying event bodies; curIdx is the next undispatched slot.
	// Nodes return to the free list as they are dispatched. Handlers posting
	// back into the current cycle append to the (now empty) ring bucket,
	// which is drained next.
	cur    []int32
	curIdx int

	now  Time
	seq  uint64
	nRun uint64
}

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// Events returns the number of events executed so far.
func (k *Kernel) Events() uint64 { return k.nRun }

// Pending returns the number of events not yet executed.
func (k *Kernel) Pending() int {
	return k.inWheel + len(k.over) + (len(k.cur) - k.curIdx)
}

// schedule assigns the tie-break sequence number and enqueues an event at t.
// Scheduling in the past is a programming error and panics: protocol
// components must never violate causality, and silently clamping would hide
// bugs. Wheel-resident events are written field-by-field into their slab
// node — the scalar payload takes no write barriers, only the handler
// pointer does — instead of bulk-copying an event value.
func (k *Kernel) schedule(t Time, h Handler, code uint32, a1, a2 uint64) {
	if t < k.now {
		panic("sim: event scheduled in the past")
	}
	k.seq++
	if t-k.base >= wheelSize {
		k.overPush(event{at: t, seq: k.seq, h: h, code: code, a1: a1, a2: a2})
		return
	}
	nd := &k.nodes[k.bucketNode(t)-1]
	nd.ev.at = t
	nd.ev.seq = k.seq
	nd.ev.h = h
	nd.ev.code = code
	nd.ev.a1 = a1
	nd.ev.a2 = a2
}

// bucketPut appends e to its ring bucket (overflow-migration path).
// The caller guarantees e.at is within the wheel's current window.
func (k *Kernel) bucketPut(e event) {
	k.nodes[k.bucketNode(e.at)-1].ev = e
}

// bucketNode links a fresh slab node onto the bucket for time t and returns
// its 1-based index; the caller fills the event body.
func (k *Kernel) bucketNode(t Time) int32 {
	var n int32
	if k.free != 0 {
		n = k.free
		k.free = k.nodes[n-1].next
	} else {
		k.nodes = append(k.nodes, node{})
		n = int32(len(k.nodes))
	}
	k.nodes[n-1].next = 0
	i := int(t) & wheelMask
	if tl := k.tail[i]; tl != 0 {
		k.nodes[tl-1].next = n
	} else {
		k.head[i] = n
		k.occ[i>>6] |= 1 << (i & 63)
	}
	k.tail[i] = n
	k.inWheel++
	return n
}

// advance moves the wheel's window to [t, t+wheelSize) and migrates every
// overflow event that now falls inside it. Migration pops the overflow heap
// in (at, seq) order, so same-cycle overflow events enter their bucket in
// sequence order — and any event posted to that bucket afterwards carries a
// larger sequence number, preserving the total order.
func (k *Kernel) advance(t Time) {
	k.base = t
	horizon := t + wheelSize
	for len(k.over) > 0 && k.over[0].at < horizon {
		k.bucketPut(k.overPop())
	}
}

// scanDist returns the ring distance from base to the first occupied bucket.
// The caller guarantees inWheel > 0; all resident events lie in
// [base, base+wheelSize), so ring order from base is time order.
func (k *Kernel) scanDist() int {
	j := int(k.base) & wheelMask
	w := j >> 6
	off := j & 63
	if v := k.occ[w] >> off; v != 0 {
		return bits.TrailingZeros64(v)
	}
	d := 64 - off
	for i := 1; i <= wheelWords; i++ {
		if v := k.occ[(w+i)&(wheelWords-1)]; v != 0 {
			return d + bits.TrailingZeros64(v)
		}
		d += 64
	}
	panic("sim: occupancy bitmap empty with events in the wheel")
}

// refill loads the next non-empty bucket into the drain buffer and advances
// the clock to its cycle. It reports false when no events are pending.
func (k *Kernel) refill() bool {
	k.cur = k.cur[:0]
	k.curIdx = 0
	if k.inWheel == 0 {
		if len(k.over) == 0 {
			return false
		}
		k.advance(k.over[0].at)
	} else if d := k.scanDist(); d != 0 {
		k.advance(k.base + Time(d))
	}
	k.drainBucket()
	k.now = k.base
	return true
}

// drainBucket unlinks the current cycle's bucket into the drain buffer in
// FIFO (sequence) order. Event bodies stay in their slab nodes — the buffer
// records indices — and each node returns to the free list when dispatch
// consumes it, so draining moves no pointer-carrying values.
func (k *Kernel) drainBucket() {
	i := int(k.base) & wheelMask
	for h := k.head[i]; h != 0; {
		nd := &k.nodes[h-1]
		k.cur = append(k.cur, h)
		h = nd.next
		k.inWheel--
	}
	k.head[i], k.tail[i] = 0, 0
	k.occ[i>>6] &^= 1 << (i & 63)
}

// take reads the event fields out of slab node n and recycles it before
// dispatch: the handler may post new events, and the node must already be
// reusable. Only the handler reference needs dropping; payload words are
// overwritten on reuse.
func (k *Kernel) take(n int32) (h Handler, code uint32, a1, a2 uint64) {
	nd := &k.nodes[n-1]
	h, code, a1, a2 = nd.ev.h, nd.ev.code, nd.ev.a1, nd.ev.a2
	nd.ev.h = nil
	nd.next = k.free
	k.free = n
	return
}

// peekTime returns the earliest pending event time.
func (k *Kernel) peekTime() (Time, bool) {
	if k.curIdx < len(k.cur) {
		return k.nodes[k.cur[k.curIdx]-1].ev.at, true
	}
	if k.inWheel > 0 {
		return k.base + Time(k.scanDist()), true
	}
	if len(k.over) > 0 {
		return k.over[0].at, true
	}
	return 0, false
}

// Post schedules an event: at time t, h.HandleEvent(code, a1, a2) runs. The
// event is stored by value, so scheduling allocates nothing.
func (k *Kernel) Post(t Time, h Handler, code uint32, a1, a2 uint64) {
	k.schedule(t, h, code, a1, a2)
}

// PostAfter schedules a typed event d cycles from now.
func (k *Kernel) PostAfter(d Time, h Handler, code uint32, a1, a2 uint64) {
	k.Post(k.now+d, h, code, a1, a2)
}

// Step executes the single earliest pending event and reports whether one
// existed.
func (k *Kernel) Step() bool {
	if k.curIdx >= len(k.cur) && !k.refill() {
		return false
	}
	h, code, a1, a2 := k.take(k.cur[k.curIdx])
	k.curIdx++
	k.nRun++
	h.HandleEvent(code, a1, a2)
	return true
}

// StepCycle executes every pending event of the earliest pending cycle —
// including events its handlers post back into the same cycle — as one
// batch, without touching the queue structure between events. It reports
// whether any event ran. This is the simulator's main-loop fast path: the
// per-event cost is an index increment and the handler call.
func (k *Kernel) StepCycle() bool {
	if k.curIdx >= len(k.cur) && !k.refill() {
		return false
	}
	for {
		for k.curIdx < len(k.cur) {
			h, code, a1, a2 := k.take(k.cur[k.curIdx])
			k.curIdx++
			k.nRun++
			h.HandleEvent(code, a1, a2)
		}
		// Handlers may have posted back into the current cycle; its ring
		// bucket is the only one that can hold time == now.
		i := int(k.now) & wheelMask
		if k.occ[i>>6]&(1<<(i&63)) == 0 {
			return true
		}
		k.cur = k.cur[:0]
		k.curIdx = 0
		k.drainBucket()
	}
}

// Run executes events until the queue drains or limit events have run in this
// call (0 means no limit). It returns true if the queue drained.
func (k *Kernel) Run(limit uint64) bool {
	var n uint64
	for k.Pending() > 0 {
		if limit != 0 && n >= limit {
			return false
		}
		k.Step()
		n++
	}
	return true
}

// RunUntil executes events with at-time <= deadline. Events scheduled later
// remain pending. Returns true if the queue drained.
func (k *Kernel) RunUntil(deadline Time) bool {
	for {
		t, ok := k.peekTime()
		if !ok {
			k.now = deadline
			if deadline > k.base {
				k.base = deadline // empty wheel: window may jump freely
			}
			return true
		}
		if t > deadline {
			return false
		}
		k.StepCycle()
	}
}

// RunWindow executes events with at-time <= deadline, like RunUntil, but
// never advances the clock past the last executed event: a drained kernel
// keeps now at the last dispatched cycle, so Now() reads as "time of the
// last event here", not "end of the last window". The epoch-parallel
// executor (ShardExec) relies on this — the maximum Now() across kernels
// after a run is then the global last-event cycle, independent of how the
// run was cut into windows.
func (k *Kernel) RunWindow(deadline Time) {
	for {
		t, ok := k.peekTime()
		if !ok || t > deadline {
			return
		}
		k.StepCycle()
	}
}

// ---------------------------------------------------------------------------
// Overflow level: an inlined 4-ary min-heap on (at, seq) for events beyond
// the wheel horizon. The wider fan-out halves the sift depth of a binary
// heap; events are stored by value, so steady state allocates nothing.

// overLess orders heap slots i and j by (at, seq).
func (k *Kernel) overLess(i, j int) bool {
	a, b := &k.over[i], &k.over[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// overPush appends e and restores the heap invariant (sift-up).
func (k *Kernel) overPush(e event) {
	k.over = append(k.over, e)
	i := len(k.over) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !k.overLess(i, p) {
			break
		}
		k.over[i], k.over[p] = k.over[p], k.over[i]
		i = p
	}
}

// overPop removes and returns the minimum event (sift-down). The vacated
// tail slot is zeroed so the heap's backing array does not retain handler
// references past migration.
func (k *Kernel) overPop() event {
	top := k.over[0]
	n := len(k.over) - 1
	k.over[0] = k.over[n]
	k.over[n] = event{}
	k.over = k.over[:n]
	i := 0
	for {
		min := i
		c0 := 4*i + 1
		if c0 >= n {
			break
		}
		cEnd := c0 + 4
		if cEnd > n {
			cEnd = n
		}
		for c := c0; c < cEnd; c++ {
			if k.overLess(c, min) {
				min = c
			}
		}
		if min == i {
			break
		}
		k.over[i], k.over[min] = k.over[min], k.over[i]
		i = min
	}
	return top
}
