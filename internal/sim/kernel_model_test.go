package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// refSched is a naive reference scheduler: a flat slice popped by linear
// minimum scan on (at, seq). It is obviously correct, so any divergence in
// execution order or clock between it and the heap-based Kernel is a Kernel
// bug.
type refSched struct {
	now  Time
	seq  uint64
	evs  []refEvent
	nRun uint64
}

type refEvent struct {
	at  Time
	seq uint64
	id  int
}

func (r *refSched) at(t Time, id int) {
	if t < r.now {
		panic("ref: past")
	}
	r.seq++
	r.evs = append(r.evs, refEvent{at: t, seq: r.seq, id: id})
}

func (r *refSched) popMin() refEvent {
	min := 0
	for i := 1; i < len(r.evs); i++ {
		e, m := r.evs[i], r.evs[min]
		if e.at < m.at || (e.at == m.at && e.seq < m.seq) {
			min = i
		}
	}
	e := r.evs[min]
	r.evs = append(r.evs[:min], r.evs[min+1:]...)
	return e
}

func (r *refSched) step(log *[]int) bool {
	if len(r.evs) == 0 {
		return false
	}
	e := r.popMin()
	r.now = e.at
	r.nRun++
	*log = append(*log, e.id)
	return true
}

func (r *refSched) runUntil(deadline Time, log *[]int) {
	for len(r.evs) > 0 {
		min := r.evs[0]
		for _, e := range r.evs[1:] {
			if e.at < min.at || (e.at == min.at && e.seq < min.seq) {
				min = e
			}
		}
		if min.at > deadline {
			return
		}
		r.step(log)
	}
	r.now = deadline
}

// logHandler records typed-event executions for the model check.
type logHandler struct{ log *[]int }

func (h *logHandler) HandleEvent(code uint32, a1, a2 uint64) {
	*h.log = append(*h.log, int(a1))
}

// modelOp is one step of a generated scheduler script.
type modelOp struct {
	kind  byte // 0 Post(absolute), 1 PostAfter(relative), 2 Step, 3 RunUntil, 4 Run(limit)
	delta Time
	limit uint64
}

// modelScript generates a random op sequence. Deltas are small so times
// collide often, exercising the (at, seq) tie-break.
func modelScript(r *rand.Rand, n int) []modelOp {
	ops := make([]modelOp, n)
	for i := range ops {
		ops[i] = modelOp{
			kind:  byte(r.Intn(5)),
			delta: Time(r.Intn(8)),
			limit: uint64(r.Intn(4)),
		}
	}
	return ops
}

// TestKernelMatchesReferenceModel drives the Kernel and the reference
// scheduler through identical random scripts of Post/PostAfter/Step/Run/
// RunUntil calls and requires identical execution logs, clocks, and counters.
func TestKernelMatchesReferenceModel(t *testing.T) {
	check := func(seed int64, n int) bool {
		r := rand.New(rand.NewSource(seed))
		ops := modelScript(r, n)

		var k Kernel
		var ref refSched
		var kLog, rLog []int
		h := &logHandler{log: &kLog}
		id := 0

		for _, op := range ops {
			switch op.kind {
			case 0:
				eid := id
				id++
				k.Post(k.Now()+op.delta, h, 0, uint64(eid), 0)
				ref.at(ref.now+op.delta, eid)
			case 1:
				eid := id
				id++
				k.PostAfter(op.delta, h, 0, uint64(eid), 0)
				ref.at(ref.now+op.delta, eid)
			case 2:
				if k.Step() != ref.step(&rLog) {
					t.Errorf("seed %d: Step existence diverged", seed)
					return false
				}
			case 3:
				k.RunUntil(k.Now() + op.delta)
				ref.runUntil(ref.now+op.delta, &rLog)
			case 4:
				for i := uint64(0); i < op.limit; i++ {
					if k.Step() != ref.step(&rLog) {
						t.Errorf("seed %d: Run step diverged", seed)
						return false
					}
				}
			}
			if k.Now() != ref.now {
				t.Errorf("seed %d: clock diverged kernel=%d ref=%d", seed, k.Now(), ref.now)
				return false
			}
		}
		// Drain both.
		k.Run(0)
		for ref.step(&rLog) {
		}
		if !reflect.DeepEqual(kLog, rLog) {
			t.Errorf("seed %d: execution order diverged\n kernel: %v\n ref:    %v", seed, kLog, rLog)
			return false
		}
		if k.Events() != ref.nRun || k.Pending() != 0 {
			t.Errorf("seed %d: counters diverged", seed)
			return false
		}
		return true
	}

	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(r.Int63())
			args[1] = reflect.ValueOf(20 + r.Intn(180))
		},
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// heapRef is a reference binary min-heap on (at, seq) — an independent
// implementation of the ordering contract the timing wheel must honor, used
// to cross-check the wheel's pop order under workloads that stress the
// horizon boundary and the overflow level.
type heapRef struct {
	now Time
	seq uint64
	evs []refEvent
}

func (h *heapRef) less(i, j int) bool {
	a, b := h.evs[i], h.evs[j]
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (h *heapRef) push(t Time, id int) {
	h.seq++
	h.evs = append(h.evs, refEvent{at: t, seq: h.seq, id: id})
	for i := len(h.evs) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.evs[i], h.evs[p] = h.evs[p], h.evs[i]
		i = p
	}
}

func (h *heapRef) pop() (refEvent, bool) {
	if len(h.evs) == 0 {
		return refEvent{}, false
	}
	top := h.evs[0]
	n := len(h.evs) - 1
	h.evs[0] = h.evs[n]
	h.evs = h.evs[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.less(c+1, c) {
			c++
		}
		if !h.less(c, i) {
			break
		}
		h.evs[i], h.evs[c] = h.evs[c], h.evs[i]
		i = c
	}
	h.now = top.at
	return top, true
}

// guardedHandler models the codebase's cancellation idiom: events are never
// removed from the queue; a stale event finds its guard flipped at dispatch
// time and dies silently. The wheel and the reference must agree on which
// events were live at their (identically ordered) pop points.
type guardedHandler struct {
	log       *[]int
	cancelled map[int]bool
}

func (h *guardedHandler) HandleEvent(code uint32, a1, a2 uint64) {
	if id := int(a1); !h.cancelled[id] {
		*h.log = append(*h.log, id)
	}
}

// TestWheelMatchesReferenceHeapQuick drives the timing wheel and an
// independent reference heap through identical random schedule/pop/cancel
// workloads and requires identical pop order and clocks. The delta mix is
// chosen to stress every wheel regime: same-cycle appends, near-horizon
// buckets, the exact horizon boundary (wheelSize−1 / wheelSize / wheelSize+1,
// i.e. ring vs overflow classification), multi-wrap times, and far-future
// events that sit in the overflow level across many window advances.
func TestWheelMatchesReferenceHeapQuick(t *testing.T) {
	deltas := []Time{
		0, 1, 2, 5, 7, 63, 64,
		wheelSize - 1, wheelSize, wheelSize + 1,
		2*wheelSize - 1, 2 * wheelSize, 2*wheelSize + 5,
		1000, 4096, 10007,
	}
	check := func(seed int64, n int) bool {
		r := rand.New(rand.NewSource(seed))
		var k Kernel
		var ref heapRef
		var kLog, rLog []int
		cancelled := make(map[int]bool)
		var outstanding []int
		h := &guardedHandler{log: &kLog, cancelled: cancelled}
		id := 0

		pop := func() bool {
			e, ok := ref.pop()
			if k.Step() != ok {
				t.Errorf("seed %d: pop existence diverged at event %d", seed, len(rLog))
				return false
			}
			if !ok {
				return true
			}
			if !cancelled[e.id] {
				rLog = append(rLog, e.id)
			}
			if k.Now() != ref.now {
				t.Errorf("seed %d: clock diverged kernel=%d ref=%d", seed, k.Now(), ref.now)
				return false
			}
			return true
		}

		for i := 0; i < n; i++ {
			switch r.Intn(10) {
			case 0, 1, 2, 3, 4:
				d := deltas[r.Intn(len(deltas))]
				k.PostAfter(d, h, 0, uint64(id), 0)
				ref.push(ref.now+d, id)
				outstanding = append(outstanding, id)
				id++
			case 5, 6, 7:
				if !pop() {
					return false
				}
			case 8:
				// Cancel-style: guard off a random scheduled event. Both
				// sides still pop it (in the same position); neither logs it.
				if len(outstanding) > 0 {
					cancelled[outstanding[r.Intn(len(outstanding))]] = true
				}
			case 9:
				for j := 0; j < 6; j++ {
					if !pop() {
						return false
					}
				}
			}
		}
		for k.Pending() > 0 {
			if !pop() {
				return false
			}
		}
		if len(ref.evs) != 0 {
			t.Errorf("seed %d: reference still holds %d events after kernel drained", seed, len(ref.evs))
			return false
		}
		if !reflect.DeepEqual(kLog, rLog) {
			t.Errorf("seed %d: pop order diverged\n kernel: %v\n ref:    %v", seed, kLog, rLog)
			return false
		}
		return true
	}

	cfg := &quick.Config{
		MaxCount: 150,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(r.Int63())
			args[1] = reflect.ValueOf(50 + r.Intn(250))
		},
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestWheelPastSchedulePanics pins the causality guard with a clock far from
// zero: after the window has advanced, scheduling even one cycle in the past
// must panic rather than wrap into a live bucket.
func TestWheelPastSchedulePanics(t *testing.T) {
	var k Kernel
	h := &guardedHandler{log: new([]int), cancelled: map[int]bool{}}
	k.Post(3*wheelSize+7, h, 0, 0, 0)
	k.Run(0) // now == 3*wheelSize+7
	defer func() {
		if recover() == nil {
			t.Error("scheduling before now did not panic")
		}
	}()
	k.Post(k.Now()-1, h, 0, 1, 0)
}

// selfPump reschedules itself n times — the steady-state shape of a
// processor's step loop — so AllocsPerRun sees a realistic mixed push/pop
// load with typed events only.
type selfPump struct {
	k *Kernel
	n int
}

func (p *selfPump) HandleEvent(code uint32, a1, a2 uint64) {
	if p.n > 0 {
		p.n--
		p.k.PostAfter(Time(1+p.n%3), p, 0, a1, a2)
	}
}

// TestKernelSteadyStateZeroAlloc pins the zero-allocation guarantee of the
// typed hot path: once the queue's backing array has grown, Post/Step cycles
// must not allocate.
func TestKernelSteadyStateZeroAlloc(t *testing.T) {
	var k Kernel
	pumps := make([]*selfPump, 16)
	for i := range pumps {
		pumps[i] = &selfPump{k: &k}
	}
	prime := func(rounds int) {
		for i, p := range pumps {
			p.n = rounds
			k.PostAfter(Time(i%5), p, 0, uint64(i), 0)
		}
		k.Run(0)
	}
	prime(64) // grow the heap's backing array

	allocs := testing.AllocsPerRun(10, func() { prime(256) })
	if allocs != 0 {
		t.Fatalf("typed schedule/dispatch allocated %v allocs/run, want 0", allocs)
	}
}

// BenchmarkKernelPostStep measures the typed hot path: schedule + dispatch
// of one event with a warm queue.
func BenchmarkKernelPostStep(b *testing.B) {
	var k Kernel
	p := &selfPump{k: &k}
	// Keep a standing population so push/pop exercise real sift depth.
	for i := 0; i < 64; i++ {
		k.PostAfter(Time(i), p, 0, 0, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.PostAfter(3, p, 0, 0, 0)
		k.Step()
	}
}
