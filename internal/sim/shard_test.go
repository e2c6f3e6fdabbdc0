package sim

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// ---------------------------------------------------------------------------
// Pending / peekTime across the wheel-overflow horizon.

// countHandler counts invocations; used where only occupancy matters.
type countHandler struct{ n int }

func (h *countHandler) HandleEvent(code uint32, a1, a2 uint64) { h.n++ }

func TestPendingPeekAcrossOverflowHorizon(t *testing.T) {
	var k Kernel
	h := &countHandler{}

	// One event in the dense ring, one exactly at the horizon edge (first
	// overflow slot), and two far beyond it.
	times := []Time{3, wheelSize - 1, wheelSize, wheelSize * 3, wheelSize*3 + 7}
	for _, at := range times {
		k.Post(at, h, 0, 0, 0)
	}
	if got, want := k.Pending(), len(times); got != want {
		t.Fatalf("Pending() = %d, want %d", got, want)
	}
	if pt, ok := k.peekTime(); !ok || pt != 3 {
		t.Fatalf("peekTime() = %d,%v, want 3,true", pt, ok)
	}

	// Drain one event at a time; after each, peekTime must be the next
	// scheduled time and Pending the remaining count — including across the
	// refills that migrate overflow-heap events into the ring as the wheel
	// base advances past the horizon.
	for i := range times {
		if !k.StepCycle() {
			t.Fatalf("StepCycle drained early at %d", i)
		}
		if got, want := k.Pending(), len(times)-i-1; got != want {
			t.Fatalf("after %d steps: Pending() = %d, want %d", i+1, got, want)
		}
		pt, ok := k.peekTime()
		if i == len(times)-1 {
			if ok {
				t.Fatalf("after draining: peekTime() = %d, want none", pt)
			}
			break
		}
		if !ok || pt != times[i+1] {
			t.Fatalf("after %d steps: peekTime() = %d,%v, want %d,true", i+1, pt, ok, times[i+1])
		}
	}
	if h.n != len(times) {
		t.Fatalf("ran %d events, want %d", h.n, len(times))
	}

	// Same-cycle fan-in at an overflow time must count individually.
	base := k.Now() + wheelSize + 11
	for i := 0; i < 5; i++ {
		k.Post(base, h, 0, uint64(i), 0)
	}
	if got := k.Pending(); got != 5 {
		t.Fatalf("Pending() = %d, want 5", got)
	}
	if pt, ok := k.peekTime(); !ok || pt != base {
		t.Fatalf("peekTime() = %d,%v, want %d,true", pt, ok, base)
	}
	k.StepCycle()
	if got := k.Pending(); got != 0 {
		t.Fatalf("Pending() after batch = %d, want 0", got)
	}
}

// ---------------------------------------------------------------------------
// Past-schedule panics at epoch boundaries.

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected past-schedule panic", name)
		}
	}()
	fn()
}

// TestPastSchedulePanicAtEpochBoundary pins the guard the epoch merge
// relies on: after a kernel has executed its window, inserting at or before
// its last executed cycle panics, while the first legal merge time (after
// the window) is accepted. RunWindow must also leave a drained kernel's
// clock at its last event, not at the window end — that is what keeps an
// insert at window-end+1 legal for a kernel that went idle mid-window.
func TestPastSchedulePanicAtEpochBoundary(t *testing.T) {
	var k Kernel
	h := &countHandler{}
	k.Post(5, h, 0, 0, 0)
	k.Post(7, h, 0, 0, 0)

	const windowEnd = Time(9)
	k.RunWindow(windowEnd)
	if k.Now() != 7 {
		t.Fatalf("Now() after drained window = %d, want last event cycle 7", k.Now())
	}
	// Merge inserting inside the already-executed range must panic...
	mustPanic(t, "insert before last event", func() { k.Post(6, h, 0, 0, 0) })
	// ...while the epoch contract's arrival times (strictly after the
	// window) are fine, as is the idle remainder of the window itself.
	k.Post(windowEnd+1, h, 0, 0, 0)
	k.Post(8, h, 0, 0, 0) // legal only because RunWindow did not advance to 9

	k.RunWindow(windowEnd + 1)
	if h.n != 4 {
		t.Fatalf("ran %d events, want 4", h.n)
	}
	mustPanic(t, "insert at boundary after run", func() { k.Post(windowEnd, h, 0, 0, 0) })
}

// ---------------------------------------------------------------------------
// Sharded vs single-kernel equivalence on random event programs.

// The toy program: events carry (budget, uid) packed in a1. A handled event
// records itself in the node's trace and, while budget remains, spawns one
// local child and one cross-node child with times derived from a pure hash
// of (seed, node, now, a1) — pure so behaviour cannot depend on the
// interleaving of same-cycle arrivals, which is exactly the freedom the
// sharded merge has relative to a single kernel.

const toyWindow = Time(3) // lookahead: cross-node sends arrive >= L+1 later

type toyRec struct {
	at   Time
	node int
	a1   uint64
}

type toySend struct {
	at    Time // send time
	dst   int
	delay Time
	a1    uint64
}

func toyMix(vs ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vs {
		h ^= v
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 29
		h *= 0x94d049bb133111eb
		h ^= h >> 32
	}
	return h
}

// toyNode runs on its own kernel under ShardExec; cross-node spawns are
// captured into out and exchanged by the test's merge callback.
type toyNode struct {
	id    int
	k     *Kernel
	seed  uint64
	n     int
	trace []toyRec
	out   []toySend
}

func (tn *toyNode) HandleEvent(code uint32, a1, a2 uint64) {
	tn.trace = append(tn.trace, toyRec{at: tn.k.Now(), node: tn.id, a1: a1})
	budget := a1 >> 32
	if budget == 0 {
		return
	}
	h := toyMix(tn.seed, uint64(tn.id), uint64(tn.k.Now()), a1)
	child := (budget-1)<<32 | (h & 0xffffffff)
	tn.k.Post(tn.k.Now()+Time(h%7), tn, 0, child, 0)
	h2 := toyMix(h, 1)
	tn.out = append(tn.out, toySend{
		at:    tn.k.Now(),
		dst:   int(h2 % uint64(tn.n)),
		delay: toyWindow + 1 + Time((h2>>8)%5),
		a1:    (budget - 1) << 32, // distinct uid space from local children
	})
}

// runToyOn executes the toy program on fresh per-node kernels under ex
// (replacing its Ks and Merge, keeping Window and Check) and returns
// the per-node traces. Merge delivers cross-node sends through ex.Post; with
// bypass it posts straight into the destination kernel instead — the
// cache-contract violation Run must refuse.
func runToyOn(ex *ShardExec, seed uint64, nodes int, bypass bool) ([][]toyRec, error) {
	ks := make([]Kernel, nodes)
	tns := make([]*toyNode, nodes)
	ksp := make([]*Kernel, nodes)
	for i := range ks {
		ksp[i] = &ks[i]
		tns[i] = &toyNode{id: i, k: &ks[i], seed: seed, n: nodes}
	}
	for i, tn := range tns {
		// Seed events: budget 3, one per node, staggered start times.
		ks[i].Post(Time(toyMix(seed, uint64(i), 7)%5), tn, 0, 3<<32|uint64(i), 0)
	}
	cursors := make([]int, nodes)
	ex.Ks = ksp
	// Only active nodes can have captured sends this window (the Merge
	// contract); the trailing cursor check below would catch any send a
	// non-active node somehow held back.
	ex.Merge = func(start, end Time, active []int) {
		for t := start; t <= end; t++ {
			for _, i := range active {
				tn := tns[i]
				for cursors[i] < len(tn.out) && tn.out[cursors[i]].at == t {
					s := tn.out[cursors[i]]
					cursors[i]++
					if bypass {
						ks[s.dst].Post(s.at+s.delay, tns[s.dst], 0, s.a1, 0)
					} else {
						ex.Post(s.dst, s.at+s.delay, tns[s.dst], 0, s.a1, 0)
					}
				}
			}
		}
	}
	if err := ex.Run(); err != nil {
		return nil, err
	}
	for i, tn := range tns {
		if cursors[i] != len(tn.out) {
			panic("merge left undelivered sends")
		}
	}
	traces := make([][]toyRec, nodes)
	for i, tn := range tns {
		traces[i] = tn.trace
	}
	return traces, nil
}

// runToySharded executes the toy program on a new executor and returns the
// per-node traces.
func runToySharded(seed uint64, nodes int) [][]toyRec {
	traces, err := runToyOn(&ShardExec{Window: toyWindow}, seed, nodes, false)
	if err != nil {
		panic(err)
	}
	return traces
}

// refNode is the same program on one shared kernel: cross-node spawns post
// directly instead of travelling through a merge.
type refNode struct {
	id    int
	k     *Kernel
	seed  uint64
	peers []*refNode
	trace []toyRec
}

func (rn *refNode) HandleEvent(code uint32, a1, a2 uint64) {
	rn.trace = append(rn.trace, toyRec{at: rn.k.Now(), node: rn.id, a1: a1})
	budget := a1 >> 32
	if budget == 0 {
		return
	}
	h := toyMix(rn.seed, uint64(rn.id), uint64(rn.k.Now()), a1)
	child := (budget-1)<<32 | (h & 0xffffffff)
	rn.k.Post(rn.k.Now()+Time(h%7), rn, 0, child, 0)
	h2 := toyMix(h, 1)
	dst := int(h2 % uint64(len(rn.peers)))
	rn.k.Post(rn.k.Now()+toyWindow+1+Time((h2>>8)%5), rn.peers[dst], 0, (budget-1)<<32, 0)
}

func runToyReference(seed uint64, nodes int) [][]toyRec {
	var k Kernel
	rns := make([]*refNode, nodes)
	for i := range rns {
		rns[i] = &refNode{id: i, k: &k, seed: seed}
	}
	for _, rn := range rns {
		rn.peers = rns
	}
	for i, rn := range rns {
		k.Post(Time(toyMix(seed, uint64(i), 7)%5), rn, 0, 3<<32|uint64(i), 0)
	}
	for k.Pending() > 0 {
		k.StepCycle()
	}
	traces := make([][]toyRec, nodes)
	for i, rn := range rns {
		traces[i] = rn.trace
	}
	return traces
}

func flattenSorted(traces [][]toyRec) []toyRec {
	var all []toyRec
	for _, tr := range traces {
		all = append(all, tr...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.node != b.node {
			return a.node < b.node
		}
		return a.a1 < b.a1
	})
	return all
}

func tracesEqual(a, b [][]toyRec) error {
	if len(a) != len(b) {
		return fmt.Errorf("node count %d vs %d", len(a), len(b))
	}
	for n := range a {
		if len(a[n]) != len(b[n]) {
			return fmt.Errorf("node %d: %d vs %d events", n, len(a[n]), len(b[n]))
		}
		for i := range a[n] {
			if a[n][i] != b[n][i] {
				return fmt.Errorf("node %d event %d: %+v vs %+v", n, i, a[n][i], b[n][i])
			}
		}
	}
	return nil
}

// TestShardedKernelEquivalenceQuick drives random toy programs and checks
// the sharded-execution contract: the sharded run executes exactly the same
// (time, node, payload) event multiset as a single shared kernel (ordering
// within a cycle is the one degree of freedom the merge is allowed).
func TestShardedKernelEquivalenceQuick(t *testing.T) {
	f := func(seed uint64, nodesRaw uint8) bool {
		nodes := 2 + int(nodesRaw%7) // 2..8
		ref := flattenSorted(runToyReference(seed, nodes))
		shr := flattenSorted(runToySharded(seed, nodes))
		if len(ref) != len(shr) {
			t.Logf("seed %d nodes %d: event count %d vs reference %d", seed, nodes, len(shr), len(ref))
			return false
		}
		for i := range ref {
			if ref[i] != shr[i] {
				t.Logf("seed %d nodes %d: multiset diverges at %d: %+v vs %+v", seed, nodes, i, shr[i], ref[i])
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 12
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestShardExecRepeatedRuns runs one executor several times over fresh
// kernels, to pin that each Run re-seeds its peek cache rather than
// trusting the previous run's entries.
func TestShardExecRepeatedRuns(t *testing.T) {
	want := runToySharded(42, 5)
	ex := &ShardExec{Window: toyWindow}
	for round := 0; round < 3; round++ {
		got, err := runToyOn(ex, 42, 5, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := tracesEqual(want, got); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestShardExecPostBehindCachePanics: a Merge that posts with Kernel.Post
// instead of ShardExec.Post leaves the peek cache stale, which would
// silently reorder the run. Run must refuse it loudly — when a kernel's next
// event differs from the cached one, or at the end, when the cache says
// everything drained but a kernel still holds events. The seeds cover both.
func TestShardExecPostBehindCachePanics(t *testing.T) {
	seen := map[string]bool{}
	for seed := uint64(1); seed <= 5; seed++ {
		func() {
			defer func() {
				msg, _ := recover().(string)
				switch {
				case strings.Contains(msg, "differs from the ShardExec peek cache"):
					seen["next event"] = true
				case strings.Contains(msg, "peek cache never saw"):
					seen["drained"] = true
				default:
					t.Errorf("seed %d: recovered %q, want a peek-cache panic", seed, msg)
				}
			}()
			runToyOn(&ShardExec{Window: toyWindow}, seed, 6, true)
		}()
	}
	if !seen["next event"] || !seen["drained"] {
		t.Errorf("panics seen %v, want both the next-event and the drained check", seen)
	}
}
